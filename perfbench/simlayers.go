package main

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// simCounters is a snapshot of the deployment's public counters.
type simCounters struct {
	link             map[string]simnet.Duration
	hcaSend, hcaRecv []simnet.Duration
	verbsRetx        uint64
	ams              uint64
	regHits, regMiss uint64
	sockRetx         uint64
	drains           uint64
	storeOps         uint64
	evictions        uint64
	lockBusy         simnet.Duration
	mallocs          uint64
}

func (r *simRun) counters() simCounters {
	d := r.d
	c := simCounters{link: d.IB.Utilization()}
	for i, srv := range d.Servers {
		send, recv := d.ServerHCAs[i].Utilization()
		c.hcaSend = append(c.hcaSend, send)
		c.hcaRecv = append(c.hcaRecv, recv)
		c.verbsRetx += d.ServerHCAs[i].Retransmits()
		h, m := d.ServerRTs[i].RegCacheStats()
		c.regHits += h
		c.regMiss += m
		c.drains += srv.UCRBatchedDrains()
		st := srv.Store().Stats()
		c.storeOps += st.CmdGet + st.CmdSet
		c.evictions += st.Evictions
		busy, _ := srv.Store().LockStats()
		c.lockBusy += busy
	}
	for _, sc := range r.clients {
		if rt := sc.c.Runtime(); rt != nil {
			c.verbsRetx += rt.HCA().Retransmits()
			h, m := rt.RegCacheStats()
			c.regHits += h
			c.regMiss += m
		}
		if ut, ok := sc.c.MC.Transport(0).(*mcclient.UCRTransport); ok {
			in, out, _, _, _ := ut.Endpoint().Context().Stats()
			c.ams += in + out
		}
	}
	if p := d.Provider(r.w.transport); p != nil {
		c.sockRetx = p.Retransmits()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// layerCounters turns the counter deltas over the measured phase into
// per-layer metrics (plus the raw counts the vacuity guards read).
func (r *simRun) layerCounters(b, a simCounters, makespan simnet.Duration) map[string]float64 {
	span := float64(makespan)
	ops := float64(r.ops)
	var linkMax float64
	for name, busy := range a.link {
		linkMax = max(linkMax, float64(busy-b.link[name])/span)
	}
	var send, recv, hcaBusy float64
	for i := range a.hcaSend {
		s, rv := float64(a.hcaSend[i]-b.hcaSend[i]), float64(a.hcaRecv[i]-b.hcaRecv[i])
		send = max(send, s/span)
		recv = max(recv, rv/span)
		hcaBusy += s + rv
	}
	stripes := 0
	var malloced int64
	for _, srv := range r.d.Servers {
		stripes += srv.Store().NumStripes()
		_, m := srv.Store().SlabStats()
		malloced += m
	}
	regs := float64(a.regHits - b.regHits + a.regMiss - b.regMiss)
	drains := float64(a.drains - b.drains)
	return map[string]float64{
		"simnet.link_util_max":        linkMax,
		"verbs.hca_send_util":         send,
		"verbs.hca_recv_util":         recv,
		"verbs.retransmits":           float64(a.verbsRetx - b.verbsRetx),
		"ucr.msgs_per_op":             ratio(float64(a.ams-b.ams), ops),
		"ucr.regcache_hit_ratio":      ratio(float64(a.regHits-b.regHits), regs),
		"sockstream.retransmits":      float64(a.sockRetx - b.sockRetx),
		"memcached.ops_per_drain":     ratio(float64(a.storeOps-b.storeOps), drains),
		"memcached.lock_util":         float64(a.lockBusy-b.lockBusy) / (span * float64(stripes)),
		"memcached.evictions_per_kop": perKop(float64(a.evictions-b.evictions), ops),
		"memcached.oom_per_kop":       perKop(float64(r.oom), ops),
		"memcached.slab_malloced_mb":  float64(malloced) / (1 << 20),
		"mcclient.errors":             float64(r.errs),
		"runtime.allocs_per_op":       ratio(float64(a.mallocs-b.mallocs), ops),
		"evictions":                   float64(a.evictions - b.evictions),
		"ams":                         float64(a.ams - b.ams),
		"hca_busy":                    hcaBusy,
	}
}

// timedTransport times each call into a server transport, so a
// Client's own cost is its call minus the transport calls inside it.
type timedTransport struct {
	mcclient.Transport
	tr *tracer
}

func (t timedTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	tok := t.tr.begin(spTransport)
	defer t.tr.end(tok)
	return t.Transport.Get(clk, key)
}

func (t timedTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (ret0 memcached.StoreResult, err error) {
	tok := t.tr.begin(spTransport)
	defer t.tr.end(tok)
	return t.Transport.Set(clk, key, flags, exptime, value)
}

// wrapClient rebuilds c's client over timed transports.
func wrapClient(c *cluster.Client, beh mcclient.Behaviors, servers int, tr *tracer) (*mcclient.Client, error) {
	trs := make([]mcclient.Transport, servers)
	for i := range trs {
		trs[i] = timedTransport{c.MC.Transport(i), tr}
	}
	mc, err := mcclient.New(c.Clock, beh, trs)
	if err != nil {
		return nil, fmt.Errorf("rebuild client: %w", err)
	}
	return mc, nil
}
