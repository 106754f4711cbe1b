package metric

import (
	"os"
	"strings"
	"testing"
)

// The CPUID probe must agree with the kernel's view of the CPU: a probe
// that wrongly reads false would pass every bit-identity test while
// silently running the portable sweeps. Linux lists "avx" among the
// flags only when the OS also saves YMM state.
func TestCPUHasAVXMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := false
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx"
		}
		if got := cpuHasAVX(); got != want {
			t.Fatalf("cpuHasAVX() = %v, /proc/cpuinfo lists avx: %v", got, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
