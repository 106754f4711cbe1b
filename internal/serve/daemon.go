package serve

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnnd/internal/obs"
)

// Daemon is what RunDaemon drives: a *Server and dnnd-router's Router.
type Daemon interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// RunDaemon is the tail dnnd-serve and dnnd-router share: serve on ln
// until SIGTERM/SIGINT, drain within drainWait, then write tracer's
// timeline to traceOut (when set) and print dump() — the final metrics
// — to stdout. name prefixes the progress lines. A Serve failure is
// returned before anything is written; an incomplete drain or an
// unwritable trace is reported on stderr and the dump still happens.
func RunDaemon(name string, d Daemon, ln net.Listener, drainWait time.Duration, tracer *obs.Tracer, traceOut string, dump func() string) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("%s: %v, draining (up to %v)\n", name, sig, drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", name, err)
		}
		<-serveErr
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := tracer.WriteFile(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", name, err)
		} else {
			fmt.Printf("%s: trace written to %s\n", name, traceOut)
		}
	}
	fmt.Print(dump())
	return nil
}
