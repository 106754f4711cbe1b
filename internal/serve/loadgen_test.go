package serve

import (
	"errors"
	"io"
	"syscall"
	"testing"
)

func TestClassifyErr(t *testing.T) {
	for err, want := range map[error]string{
		io.EOF:               "eof",
		io.ErrUnexpectedEOF:  "eof",
		syscall.ECONNRESET:   "reset",
		syscall.EPIPE:        "reset",
		syscall.ECONNREFUSED: "refused",
		errors.New("weird"):  "io",
	} {
		if got := classifyErr(err); got != want {
			t.Errorf("classifyErr(%v) = %q, want %q", err, got, want)
		}
	}
}
