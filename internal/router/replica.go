package router

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/serve"
)

// replica is one backend server holding a copy of one shard. The query
// path shares a single lazily-dialed serve.Client per replica, its
// sub-queries pipelined (the serve protocol is built for that); the
// health prober uses its own short-lived Clients so a wedged query
// path cannot mask a dead server or vice versa.
//
// State transitions: probes set live/draining/down from the health
// line; the query path demotes straight to down on a transport error
// (failover must not wait a probe interval) and to draining on a typed
// draining rejection. Only a probe ever promotes back to live.
type replica struct {
	addr  string
	shard int

	state atomic.Uint32 // msg.RState*; zero value live, routable until told otherwise
	gen   atomic.Uint64 // snapshot generation from the last health line

	// NTP-style clock estimate from health probes: each probe is one
	// round trip, so remote_now − (probe_start + rtt/2) estimates the
	// replica's clock offset under the symmetric-delay assumption. Only
	// probes whose RTT is near the best seen update the offset (a
	// queued probe's midpoint is meaningless); minRTT decays slowly so
	// a genuine path change can re-qualify.
	clockOff atomic.Int64 // estimated remote−local offset, nanoseconds
	minRTT   atomic.Int64 // qualifying-RTT floor, nanoseconds (0 = no estimate yet)

	mu          sync.Mutex
	pc          *serve.Client
	dialTimeout time.Duration
}

func (rp *replica) curState() uint8 { return uint8(rp.state.Load()) }

// client returns the replica's shared query connection, dialing it on
// first use (and after a demotion dropped the previous one).
func (rp *replica) client() (*serve.Client, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.pc != nil {
		return rp.pc, nil
	}
	pc, err := serve.Dial(rp.addr, rp.dialTimeout)
	if err != nil {
		return nil, err
	}
	rp.pc = pc
	return pc, nil
}

// demote drops pc if it is still the replica's current connection and
// marks the replica with state (down on transport errors, draining on
// typed draining rejections). Closing the connection wakes every
// caller still blocked in QueryRaw on it, so one failure fails over
// all of that replica's in-flight sub-queries at once.
func (rp *replica) demote(pc *serve.Client, state uint8) {
	rp.mu.Lock()
	if pc != nil && rp.pc == pc {
		rp.pc = nil
	}
	rp.mu.Unlock()
	if pc != nil {
		pc.Close()
	}
	rp.state.Store(uint32(state))
}

// closeConn drops the replica's pooled connection (shutdown path).
func (rp *replica) closeConn() {
	rp.mu.Lock()
	pc := rp.pc
	rp.pc = nil
	rp.mu.Unlock()
	if pc != nil {
		pc.Close()
	}
}

// healthInfo is the parsed form of the serve health line
// ("ok n=1000 dim=8 elem=float32 metric=l2 ... gen=3").
type healthInfo struct {
	state uint8 // msg.RState*
	n     uint64
	dim   uint64
	elem  string
	gen   uint64
	now   int64 // server wall clock at reply time (0 = pre-PR-10 server)
}

// parseHealth parses a health probe line: the first token is the
// server state, the rest are key=value fields (unknown keys ignored,
// so the format can keep growing). A known numeric key whose value
// does not parse fails the whole line, so the probe counts as failed.
func parseHealth(line string) (healthInfo, error) {
	info := healthInfo{n: ^uint64(0), dim: ^uint64(0)}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return info, fmt.Errorf("router: empty health line")
	}
	switch fields[0] {
	case "ok":
		info.state = msg.RStateLive
	case "draining":
		info.state = msg.RStateDraining
	default:
		return info, fmt.Errorf("router: unknown health state %q", fields[0])
	}
	for _, f := range fields[1:] {
		k, v, found := strings.Cut(f, "=")
		if !found {
			continue
		}
		var err error
		switch k {
		case "n":
			info.n, err = strconv.ParseUint(v, 10, 64)
		case "dim":
			info.dim, err = strconv.ParseUint(v, 10, 64)
		case "elem":
			info.elem = v
		case "gen":
			info.gen, err = strconv.ParseUint(v, 10, 64)
		case "now":
			info.now, err = strconv.ParseInt(v, 10, 64)
		}
		if err != nil {
			return info, fmt.Errorf("router: health field %q: %w", f, err)
		}
	}
	return info, nil
}

// probeOnce runs one health round trip against rp and applies the
// result: live/draining per the health line, down on any transport
// failure, and — crucially — down on a shape mismatch: a replica
// answering probes but serving the wrong store (wrong point count,
// dimensionality, or element type for its shard) would silently
// return garbage through the global ID remap, so it is treated as
// broken, not healthy.
func (rt *Router) probeOnce(rp *replica) {
	c, err := serve.Dial(rp.addr, rt.cfg.DialTimeout)
	if err != nil {
		rt.m.ProbeFails.Add(1)
		rp.demote(nil, msg.RStateDown)
		return
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(rt.cfg.DialTimeout))
	t0 := time.Now()
	line, err := c.Health()
	rtt := time.Since(t0)
	if err != nil {
		rt.m.ProbeFails.Add(1)
		rp.demote(nil, msg.RStateDown)
		return
	}
	info, err := parseHealth(line)
	if err != nil {
		rt.m.ProbeFails.Add(1)
		rp.demote(nil, msg.RStateDown)
		return
	}
	sh := &rt.man.Shards[rp.shard]
	if info.n != uint64(sh.Count) ||
		info.dim != uint64(rt.man.Dim) ||
		(info.elem != "" && info.elem != rt.man.Elem) {
		rt.m.ProbeMismatches.Add(1)
		rp.demote(nil, msg.RStateDown)
		return
	}
	if info.now != 0 {
		best := rp.minRTT.Load()
		if best == 0 || rtt.Nanoseconds() <= best+best/4 {
			rp.clockOff.Store(info.now - t0.UnixNano() - rtt.Nanoseconds()/2)
			if best == 0 || rtt.Nanoseconds() < best {
				best = rtt.Nanoseconds()
			}
		}
		rp.minRTT.Store(best + best/8) // decay toward re-qualifying
	}
	rp.gen.Store(info.gen)
	rp.state.Store(uint32(info.state))
}

// prober is the per-replica health loop: one probe immediately, then
// one per interval until shutdown.
func (rt *Router) prober(rp *replica) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		rt.probeOnce(rp)
		select {
		case <-rt.stopProbe:
			return
		case <-t.C:
		}
	}
}
