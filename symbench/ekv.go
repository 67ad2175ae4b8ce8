package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/ekv"
	"symbiosys/internal/ssg"
)

// ekv_rebalance: the elastic KV scaled 3 → 6 → 3 nodes while two
// clients run a closed-loop 50/50 put/get mix; the only workload that
// reaches SSG membership, the HRW ring and live shard migration.
const (
	ekvClients  = 2
	ekvStart    = 3
	ekvPeak     = 6
	ekvOps      = 2000 // per client per round
	ekvKeys     = 256  // per-client key space
	ekvValueLen = 64
	ekvGroup    = "ekv"
	// The scale-out starts once a fifth of the round's ops are done and
	// the scale-in once 55% are, so both migrations run under load.
	ekvJoinAt   = ekvClients * ekvOps / 5
	ekvRetireAt = ekvClients * ekvOps * 55 / 100
	ekvStagger  = 3 * time.Millisecond
)

type ekvOp struct {
	put bool
	key int
}

type ekvInput struct {
	tag string // per-seed key prefix
	ops [][]ekvOp
}

func (in *ekvInput) feed(w io.Writer) {
	io.WriteString(w, in.tag)
	for _, ops := range in.ops {
		for _, op := range ops {
			fmt.Fprintf(w, "%t:%d;", op.put, op.key)
		}
	}
}

func genEKV(seed uint64) input {
	rng := rand.New(rand.NewPCG(seed, 0x454b56))
	in := &ekvInput{tag: fmt.Sprintf("%08x", rng.Uint32())}
	for c := 0; c < ekvClients; c++ {
		ops := make([]ekvOp, ekvOps)
		for i := range ops {
			ops[i] = ekvOp{put: rng.IntN(2) == 0, key: rng.IntN(ekvKeys)}
		}
		in.ops = append(in.ops, ops)
	}
	return in
}

func (in *ekvInput) key(c, k int) string { return fmt.Sprintf("ekv/%s/c%d/k%04d", in.tag, c, k) }

// ekvValue is the value of client c's i-th op: unique per op, so a read
// can tell which put it returns.
func ekvValue(c, i int) string {
	v := fmt.Sprintf("c%d-op%06d-", c, i)
	for len(v) < ekvValueLen {
		v += "x"
	}
	return v
}

type ekvRound struct {
	in       *ekvInput
	cluster  *experiments.Cluster
	host     *ssg.Host
	nodes    []*ekv.Node
	nodeInst []*margo.Instance
	clients  []*margo.Instance
	kv       []*ekv.Client
	acked    []map[string]string // per client: key -> last acked value
	staleMu  sync.Mutex
	stale    []string // reads that returned other than the last acked value
}

func ekvRetry() *margo.RetryPolicy {
	return &margo.RetryPolicy{MaxAttempts: 6, PerTryTimeout: 75 * time.Millisecond,
		InitialBackoff: 2 * time.Millisecond, MaxBackoff: 16 * time.Millisecond, Budget: -1}
}

func deployEKV(e *env, inp input) (round, error) {
	in := inp.(*ekvInput)
	r := &ekvRound{in: in, cluster: e.cluster}
	var rootInst *margo.Instance
	err := e.step("setup.process_start", func() error {
		var err error
		rootInst, err = e.start(experiments.ProcessOptions{Mode: margo.ModeServer, Node: "ekv-root", Name: "root"})
		if err != nil {
			return err
		}
		for i := 0; i < ekvPeak; i++ {
			inst, err := e.start(experiments.ProcessOptions{Mode: margo.ModeServer,
				Node: fmt.Sprintf("ekv-node%d", i), Name: fmt.Sprintf("ekv%d", i), Retry: ekvRetry()})
			if err != nil {
				return err
			}
			r.nodeInst = append(r.nodeInst, inst)
		}
		// Clients run in server mode so membership deltas are pushed to
		// their routing tables.
		for i := 0; i < ekvClients; i++ {
			inst, err := e.start(experiments.ProcessOptions{Mode: margo.ModeServer,
				Node: fmt.Sprintf("ekv-client%d", i), Name: "load", Retry: ekvRetry()})
			if err != nil {
				return err
			}
			r.clients = append(r.clients, inst)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	err = e.step("setup.provider_register", func() error {
		var err error
		if r.host, err = ssg.NewHost(rootInst); err != nil {
			return err
		}
		if _, err := r.host.Create(ekvGroup, false); err != nil {
			return err
		}
		for _, inst := range r.nodeInst {
			n, err := ekv.NewNode(inst, rootInst.Addr(), ekvGroup)
			if err != nil {
				return err
			}
			r.nodes = append(r.nodes, n)
		}
		for i := 0; i < ekvStart; i++ {
			if err := inULT(r.nodeInst[i], "join", r.nodes[i].Join); err != nil {
				return err
			}
		}
		for _, inst := range r.clients {
			c, err := ekv.NewClient(inst, rootInst.Addr(), ekvGroup)
			if err != nil {
				return err
			}
			if err := inULT(inst, "attach", c.Attach); err != nil {
				return err
			}
			r.kv = append(r.kv, c)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	err = e.step("setup.warmup", func() error {
		for i, inst := range r.clients {
			if err := inULT(inst, "warmup", func(self *abt.ULT) error {
				_, found, err := r.kv[i].Get(self, []byte("warmup"))
				if err == nil && found {
					err = fmt.Errorf("warm-up key found in a fresh deployment")
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return r, err
}

// churn scales the ring out to ekvPeak once the clients have done
// ekvJoinAt ops and back in to ekvStart after ekvRetireAt, waiting for
// each membership change to settle.
func (r *ekvRound) churn(rec *recorder, parent uint64, done *atomic.Int64, stop <-chan struct{}) error {
	waitOps := func(n int64) error {
		for done.Load() < n {
			select {
			case <-stop:
				return fmt.Errorf("clients stopped after %d ops", done.Load())
			case <-time.After(time.Millisecond):
			}
		}
		return nil
	}
	settle := func(live []*ekv.Node) error {
		deadline := time.Now().Add(15 * time.Second)
		for {
			all := true
			for _, n := range live {
				all = all && n.Settled()
			}
			if all {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ekv ring did not settle on %d nodes", len(live))
			}
			time.Sleep(time.Millisecond)
		}
	}
	change := func(name string, idx []int, fn func(i int) error, live []*ekv.Node) error {
		var err error
		rec.time(parent, "ekv.settle", 0, func() {
			for _, i := range idx {
				if err = fn(i); err != nil {
					return
				}
				time.Sleep(ekvStagger)
			}
			err = settle(live)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := waitOps(ekvJoinAt); err != nil {
		return err
	}
	if err := change("scale-out", []int{3, 4, 5}, func(i int) error {
		var err error
		rec.time(parent, "ekv.Join", 0, func() { err = inULT(r.nodeInst[i], "join", r.nodes[i].Join) })
		return err
	}, r.nodes[:ekvPeak]); err != nil {
		return err
	}
	if err := waitOps(ekvRetireAt); err != nil {
		return err
	}
	return change("scale-in", []int{5, 4, 3}, func(i int) error {
		var err error
		rec.time(parent, "ekv.Retire", 0, func() { err = inULT(r.nodeInst[i], "retire", r.nodes[i].Retire) })
		return err
	}, r.nodes[:ekvStart])
}

func (r *ekvRound) run(rec *recorder, parent uint64) ([]*opLog, error) {
	var done atomic.Int64
	stop := make(chan struct{})
	churnErr := make(chan error, 1)
	go func() { churnErr <- r.churn(rec, parent, &done, stop) }()

	r.acked = make([]map[string]string, ekvClients)
	logs, err := runIssuers(r.clients, func(self *abt.ULT, c int, log *opLog) error {
		acked := map[string]string{}
		r.acked[c] = acked
		cl := r.kv[c]
		req := uint64(c) << 32
		for i, op := range r.in.ops[c] {
			key := r.in.key(c, op.key)
			if op.put {
				val := ekvValue(c, i)
				if err := log.call(rec, parent, "ekv.Put", req+uint64(i), true, func() error {
					return cl.Put(self, []byte(key), []byte(val))
				}); err != nil {
					return err
				}
				acked[key] = val
			} else {
				var got []byte
				var found bool
				err := log.call(rec, parent, "ekv.Get", req+uint64(i), false, func() error {
					var err error
					got, found, err = cl.Get(self, []byte(key))
					return err
				})
				// A failed get changes no state: it counts against the
				// error rate and the client moves on, as a closed-loop
				// client would.
				if want, ok := acked[key]; err == nil && (ok != found || string(got) != want) {
					r.staleMu.Lock()
					r.stale = append(r.stale, fmt.Sprintf("%s: got %q (found %t), last acked %q", key, got, found, want))
					r.staleMu.Unlock()
				}
			}
			done.Add(1)
		}
		return nil
	})
	close(stop)
	if cerr := <-churnErr; cerr != nil && err == nil {
		err = cerr
	}
	return logs, err
}

// audit reads every acked key back through a refreshed route once the
// ring has settled on its final membership.
func (r *ekvRound) audit() error {
	acked := map[string]string{}
	for _, m := range r.acked {
		for k, v := range m {
			acked[k] = v
		}
	}
	final := make(map[string]kvRead, len(acked))
	err := inULT(r.clients[0], "audit", func(self *abt.ULT) error {
		if err := r.kv[0].Refresh(self); err != nil {
			return err
		}
		for k := range acked {
			v, found, err := r.kv[0].Get(self, []byte(k))
			if err != nil {
				return fmt.Errorf("audit get %s: %w", k, err)
			}
			final[k] = kvRead{val: string(v), found: found}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(r.stale) > 0 {
		return fmt.Errorf("ekv: %d reads returned other than the last acked value, first %s", len(r.stale), r.stale[0])
	}
	return auditEKV(acked, final)
}

// The nodes issue root RPCs of their own (migration pushes, membership
// pushes), so the count comes from the profiles.
func (r *ekvRound) issued() int { return -1 }

func (r *ekvRound) counters() map[string]float64 {
	m := map[string]float64{}
	for _, n := range r.nodes {
		st := n.Stats()
		m["keys_migrated"] += float64(st.KeysMigratedOut)
		m["wrong_routes"] += float64(st.WrongRoutes)
		m["dual_writes"] += float64(st.DualWrites)
		m["read_throughs"] += float64(st.ReadThroughs)
	}
	for _, c := range r.kv {
		m["redirects"] += float64(c.Redirects())
	}
	return m
}

func (r *ekvRound) close() error {
	for _, n := range r.nodes {
		n.Close()
	}
	if r.host != nil {
		r.host.Close()
	}
	return r.cluster.Shutdown()
}
