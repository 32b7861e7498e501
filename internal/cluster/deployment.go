package cluster

import (
	"fmt"
	"sync"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// Options tunes a deployment beyond the cluster profile.
type Options struct {
	// Servers is the number of memcached server processes, each on its
	// own node (the paper's deployment sketch, Fig 1b, aggregates spare
	// memory across many servers; default 1).
	Servers int
	// ServerWorkers is the memcached worker-thread count (default 4).
	ServerWorkers int
	// Stripes is the cache-engine lock-stripe count (power of two;
	// default 8 — the multi-core engine). 1 restores the global cache
	// lock of the memcached generation the paper modified, with the
	// serialization it causes modeled in virtual time.
	Stripes int
	// MemoryLimit is the server cache size (default 512 MB).
	MemoryLimit int64
	// EagerThreshold overrides the UCR eager cut-over (default 8 KB,
	// used by the ablation bench).
	EagerThreshold int
	// UCRCredits overrides the per-endpoint flow-control credit window
	// on both sides (default from the profile, 64 on B). Each credit
	// pins a real receive buffer of roughly EagerThreshold bytes, so
	// fleet-scale deployments (1000 servers × lazy client fan-out) dial
	// this down to keep tens of thousands of endpoints affordable.
	UCRCredits int
	// DispatchCost / OpCost override the server cost model (defaults
	// below when zero).
	DispatchCost simnet.Duration
	OpCost       simnet.Duration
	// CoalescedOpCost overrides the reduced per-op software cost the
	// server pays for 2nd..Nth requests served inside one batched CQ
	// drain (defaults amortize only the fixed dispatch slice; see
	// memcached.ServerConfig.CoalescedOpCost).
	CoalescedOpCost simnet.Duration
	// UCREvents switches the server's UCR completion detection from
	// polling to interrupt-style events (ablation).
	UCREvents bool
	// UseSRQ makes server UCR endpoints draw receives from one shared
	// pool per worker (§VII scalability; ablation).
	UseSRQ bool
	// SRQBuffers overrides the shared receive pool depth per server
	// worker (default 4× the credit window; only meaningful with
	// UseSRQ). Small values force RNR backpressure under bursts.
	SRQBuffers int
	// OneSidedGet arms the one-sided GET data path: every server
	// publishes its remotely-readable directory and every reliable UCR
	// client serves validated GET hits with RDMA reads, falling back to
	// the AM path on miss/conflict. Strictly opt-in so the two-sided
	// benchmarks keep their timing.
	OneSidedGet bool
	// WriteReplies arms the write-based zero-copy reply path: every
	// reliable UCR client registers a reply-slot window arena and
	// advertises a slot with each GET/MGET, and the server answers
	// crossover-sized hits by gather-writing [header ‖ value] straight
	// from the pinned slab chunk into the slot, completing the future
	// with a payload-free notify AM. Small values, oversize-vs-window,
	// UD endpoints, and exhausted arenas all fall back to the ordinary
	// eager/rendezvous ladder. Strictly opt-in so the depth-1 golden
	// figure tables stay bit-identical.
	WriteReplies bool
	// WriteReplyEager is the write-reply crossover in bytes (reply
	// header included): totals at or below it keep the eager copy path
	// even when a window was advertised. Default 1 KB.
	WriteReplyEager int
	// Faults, when non-nil, installs a deterministic fault injector on
	// every fabric (same config, one independent verdict stream per
	// fabric and node pair). Nil leaves delivery lossless and the
	// figure benchmarks bit-identical.
	Faults *simnet.FaultConfig
}

func (o Options) withDefaults(p *Profile) Options {
	if o.Servers <= 0 {
		o.Servers = 1
	}
	if o.ServerWorkers <= 0 {
		o.ServerWorkers = 4
	}
	if o.Stripes <= 0 {
		o.Stripes = 8
	}
	if o.MemoryLimit <= 0 {
		o.MemoryLimit = 512 << 20
	}
	if o.DispatchCost <= 0 {
		o.DispatchCost = 3 * us
	}
	if o.OpCost <= 0 {
		if p.Name == "B" {
			o.OpCost = 900
		} else {
			o.OpCost = 2200
		}
	}
	return o
}

// serviceFor names the sockets service for a transport.
func serviceFor(t Transport) string { return "memcached-" + string(t) }

// ucrServiceFor names the UCR frontend's service for server i (CM
// service names are fabric-wide, so each server gets its own).
func ucrServiceFor(i int) string {
	if i == 0 {
		return "memcached-ucr"
	}
	return fmt.Sprintf("memcached-ucr-%d", i)
}

// Deployment is one simulated testbed: a network, one memcached server
// node serving every transport the profile offers, and any number of
// client nodes.
type Deployment struct {
	Profile *Profile
	Opts    Options

	Network *simnet.Network
	IB      *simnet.Fabric
	Eth10G  *simnet.Fabric
	Eth1G   *simnet.Fabric
	CM      *verbs.CM

	// ServerNode/Server/ServerHCA/ServerRT are the first server (the
	// common single-server case); ServerNodes et al. list all of them.
	ServerNode *simnet.Node
	Server     *memcached.Server
	ServerHCA  *verbs.HCA
	ServerRT   *ucr.Runtime

	ServerNodes []*simnet.Node
	Servers     []*memcached.Server
	ServerHCAs  []*verbs.HCA
	ServerRTs   []*ucr.Runtime

	// Injectors are the per-fabric fault injectors (empty when
	// Opts.Faults is nil), in the order the fabrics were added.
	Injectors []*simnet.FaultInjector

	providers map[Transport]*sockstream.Provider
	clients   int

	// mu guards the server slices and client counter for runtime
	// membership changes (Fleet.Join adds servers mid-traffic while
	// other goroutines drive load; the historical slice sizing assumed
	// the fixed Options.Servers count set at New time).
	mu     sync.Mutex
	ucrCfg ucr.Config
}

// New builds a deployment on the given profile.
func New(p *Profile, opts Options) *Deployment {
	opts = opts.withDefaults(p)
	d := &Deployment{
		Profile:   p,
		Opts:      opts,
		Network:   simnet.NewNetwork(),
		providers: make(map[Transport]*sockstream.Provider),
	}
	d.IB = d.Network.AddFabric(p.IB)
	if p.Eth10G != nil {
		d.Eth10G = d.Network.AddFabric(*p.Eth10G)
	}
	if p.Eth1G != nil {
		d.Eth1G = d.Network.AddFabric(*p.Eth1G)
	}
	d.CM = verbs.NewCM(d.IB)

	if opts.Faults != nil {
		for _, fab := range []*simnet.Fabric{d.IB, d.Eth10G, d.Eth1G} {
			if fab == nil {
				continue
			}
			fi := simnet.NewFaultInjector(*opts.Faults)
			fab.SetFaults(fi)
			d.Injectors = append(d.Injectors, fi)
		}
	}

	// Socket providers, seated on their fabrics.
	seat := func(t Transport, model *sockstream.Provider, fab *simnet.Fabric) {
		if model == nil || fab == nil {
			return
		}
		d.providers[t] = model.Clone(fab)
	}
	seat(IPoIB, p.IPoIBModel, d.IB)
	seat(SDP, p.SDPModel, d.IB)
	seat(TOE10G, p.TOE10GModel, d.Eth10G)
	seat(TCP1G, p.TCP1GModel, d.Eth1G)

	d.ucrCfg = p.UCR
	if opts.EagerThreshold > 0 {
		d.ucrCfg.EagerThreshold = opts.EagerThreshold
	}
	if opts.UCRCredits > 0 {
		d.ucrCfg.Credits = opts.UCRCredits
	}
	d.ucrCfg.UseSRQ = opts.UseSRQ
	if opts.SRQBuffers > 0 {
		d.ucrCfg.SRQBuffers = opts.SRQBuffers
	}
	for i := 0; i < opts.Servers; i++ {
		name := "server"
		if opts.Servers > 1 {
			name = fmt.Sprintf("server%d", i)
		}
		d.AddServer(name)
	}
	return d
}

// AddServer brings up one more memcached server at runtime — node,
// fabric attachments, socket listeners, UCR frontend — and returns its
// index. The fleet layer calls this for churn joins while traffic is
// running; Network.AddNode and Fabric.Attach are lock-guarded, so the
// new server becomes reachable without quiescing anything. Panics on
// listener setup failure, like New.
func (d *Deployment) AddServer(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := len(d.Servers)
	node := d.Network.AddNode(name)
	d.IB.Attach(node)
	if d.Eth10G != nil {
		d.Eth10G.Attach(node)
	}
	if d.Eth1G != nil {
		d.Eth1G.Attach(node)
	}
	srv := memcached.NewServer(memcached.ServerConfig{
		Workers: d.Opts.ServerWorkers,
		Store: memcached.StoreConfig{
			MemoryLimit: d.Opts.MemoryLimit,
			Stripes:     d.Opts.Stripes,
		},
		DispatchCost:    d.Opts.DispatchCost,
		OpCost:          d.Opts.OpCost,
		CoalescedOpCost: d.Opts.CoalescedOpCost,
		WriteReplyEager: d.Opts.WriteReplyEager,
		// Lock-held copies run at the cluster's memory pack rate.
		CopyBytesPerSec: d.Profile.UCR.PackBytesPerSec,
		UCREvents:       d.Opts.UCREvents,
	})
	for t, prov := range d.providers {
		lis, err := prov.Listen(node, serviceFor(t))
		if err != nil {
			panic(fmt.Sprintf("cluster: listen %s: %v", t, err))
		}
		srv.ServeSockets(lis)
	}
	hca := verbs.NewHCA(node, d.IB, d.Profile.HCA)
	rt := ucr.New(hca, d.CM, d.ucrCfg)
	if err := srv.ServeUCR(rt, ucrServiceFor(i)); err != nil {
		panic(fmt.Sprintf("cluster: serve ucr: %v", err))
	}
	if d.Opts.OneSidedGet {
		if err := srv.EnableOneSided(0, 0); err != nil {
			panic(fmt.Sprintf("cluster: enable one-sided: %v", err))
		}
	}
	d.ServerNodes = append(d.ServerNodes, node)
	d.Servers = append(d.Servers, srv)
	d.ServerHCAs = append(d.ServerHCAs, hca)
	d.ServerRTs = append(d.ServerRTs, rt)
	if i == 0 {
		d.ServerNode, d.Server = node, srv
		d.ServerHCA, d.ServerRT = hca, rt
	}
	return i
}

// Client is one benchmark client: a node, a clock, and a connected
// memcached client handle over one transport.
type Client struct {
	Node      *simnet.Node
	Clock     *simnet.VClock
	MC        *mcclient.Client
	Transport Transport

	rt  *ucr.Runtime
	ctx *ucr.Context
}

// NewClient adds a client node (its own machine, like the paper's
// client placement) and connects it to the server over transport t.
func (d *Deployment) NewClient(t Transport, behaviors mcclient.Behaviors) (*Client, error) {
	return d.newClient(t, behaviors, false)
}

// NewClientUD connects a UCR client over an unreliable (UD) endpoint —
// the paper's §VII extension for scaling client counts (ablation bench).
func (d *Deployment) NewClientUD(behaviors mcclient.Behaviors) (*Client, error) {
	return d.newClient(UCRIB, behaviors, true)
}

func (d *Deployment) newClient(t Transport, behaviors mcclient.Behaviors, unreliable bool) (*Client, error) {
	if !d.Profile.HasTransport(t) {
		return nil, fmt.Errorf("cluster %s has no %s", d.Profile.Name, t)
	}
	d.clients++
	node := d.Network.AddNode(fmt.Sprintf("client%d", d.clients))
	clk := simnet.NewVClock(0)
	c := &Client{Node: node, Clock: clk, Transport: t}

	var trs []mcclient.Transport
	if t == UCRIB {
		hca := verbs.NewHCA(node, d.IB, d.Profile.HCA)
		c.rt = ucr.New(hca, d.CM, d.clientUCRConfig())
		c.ctx = c.rt.NewContext()
		for i, srvNode := range d.ServerNodes {
			var tr mcclient.Transport
			var err error
			if unreliable {
				tr, err = mcclient.DialUCRUnreliable(c.rt, c.ctx, srvNode, ucrServiceFor(i), behaviors, clk)
			} else {
				tr, err = mcclient.DialUCR(c.rt, c.ctx, srvNode, ucrServiceFor(i), behaviors, clk)
			}
			if err != nil {
				return nil, err
			}
			if d.Opts.OneSidedGet && !unreliable {
				if ost, ok := tr.(*mcclient.UCRTransport); ok {
					ost.EnableOneSided()
				}
			}
			if d.Opts.WriteReplies && !unreliable {
				if wt, ok := tr.(*mcclient.UCRTransport); ok {
					if err := wt.EnableWriteReplies(clk, 0, 0); err != nil {
						return nil, err
					}
				}
			}
			trs = append(trs, tr)
		}
	} else {
		prov := d.providers[t]
		switch t {
		case IPoIB, SDP:
			d.IB.Attach(node)
		case TOE10G:
			d.Eth10G.Attach(node)
		case TCP1G:
			d.Eth1G.Attach(node)
		}
		for _, srvNode := range d.ServerNodes {
			tr, err := mcclient.DialSock(prov, node, srvNode, serviceFor(t), behaviors, clk)
			if err != nil {
				return nil, err
			}
			trs = append(trs, tr)
		}
	}
	var err error
	c.MC, err = mcclient.New(clk, behaviors, trs)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// clientUCRConfig is the UCR config client endpoints dial with: the
// profile's, with the deployment's eager-threshold and credit overrides
// but without the server-side SRQ knobs.
func (d *Deployment) clientUCRConfig() ucr.Config {
	cfg := d.Profile.UCR
	if d.Opts.EagerThreshold > 0 {
		cfg.EagerThreshold = d.Opts.EagerThreshold
	}
	if d.Opts.UCRCredits > 0 {
		cfg.Credits = d.Opts.UCRCredits
	}
	return cfg
}

// FaultStats sums delivery verdicts across every fabric's injector.
func (d *Deployment) FaultStats() (delivered, dropped, corrupted uint64) {
	for _, fi := range d.Injectors {
		del, drop, corr := fi.Stats()
		delivered += del
		dropped += drop
		corrupted += corr
	}
	return delivered, dropped, corrupted
}

// Provider exposes the seated socket provider for a transport (nil for
// UCRIB or transports absent from the profile) — benches read its
// retransmission counter.
func (d *Deployment) Provider(t Transport) *sockstream.Provider { return d.providers[t] }

// Runtime exposes the client's UCR runtime (nil on socket transports) —
// benches read its HCA retransmission counter.
func (c *Client) Runtime() *ucr.Runtime { return c.rt }

// Close tears the client down.
func (c *Client) Close() {
	c.MC.Close()
	if c.ctx != nil {
		c.ctx.Destroy()
	}
}

// Close stops every server.
func (d *Deployment) Close() {
	for _, srv := range d.Servers {
		srv.Close()
	}
}
