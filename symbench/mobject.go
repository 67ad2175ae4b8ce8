package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"

	"symbiosys/internal/abt"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/mobject"
)

// mobject_ior: one Mobject provider node (sdskv + bake + sequencer) and
// two ior clients on the same node, each writing then reading back its
// objects.
const (
	mobjectClients   = 2
	mobjectObjects   = 512 // per client per round
	mobjectSize      = 16 << 10
	mobjectHandlerES = 4
)

type mobjectInput struct {
	names [][]string
	data  [][][]byte
}

func (in *mobjectInput) feed(w io.Writer) {
	for c := range in.names {
		for i, n := range in.names[c] {
			io.WriteString(w, n)
			w.Write(in.data[c][i])
		}
	}
}

func genMobject(seed uint64) input {
	rng := rand.New(rand.NewPCG(seed, 0x4d4f424a454354))
	in := &mobjectInput{}
	for c := 0; c < mobjectClients; c++ {
		base := rng.Uint64N(1 << 30)
		names := make([]string, mobjectObjects)
		data := make([][]byte, mobjectObjects)
		for i := range names {
			names[i] = fmt.Sprintf("ior/rank%d/seg%d", c, base+uint64(i))
			data[i] = make([]byte, mobjectSize)
			for j := 0; j < mobjectSize; j += 8 {
				binary.LittleEndian.PutUint64(data[i][j:], rng.Uint64())
			}
		}
		in.names = append(in.names, names)
		in.data = append(in.data, data)
	}
	return in
}

type mobjectRound struct {
	in      *mobjectInput
	cluster *experiments.Cluster
	target  string
	clients []*margo.Instance
	ior     []*mobject.Client
	reads   [][]sampleRead
}

func deployMobject(e *env, inp input) (round, error) {
	in := inp.(*mobjectInput)
	r := &mobjectRound{in: in, cluster: e.cluster}
	var srv *margo.Instance
	err := e.step("setup.process_start", func() error {
		var err error
		srv, err = e.start(experiments.ProcessOptions{Mode: margo.ModeServer,
			Node: "node0", Name: "mobject", HandlerStreams: mobjectHandlerES})
		if err != nil {
			return err
		}
		for i := 0; i < mobjectClients; i++ {
			inst, err := e.start(experiments.ProcessOptions{Mode: margo.ModeClient,
				Node: "node0", Name: fmt.Sprintf("ior%d", i)})
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
	r.target = srv.Addr()
	err = e.step("setup.provider_register", func() error {
		if _, err := mobject.RegisterProviderNode(srv, "map"); err != nil {
			return err
		}
		for _, inst := range r.clients {
			c, err := mobject.NewClient(inst)
			if err != nil {
				return err
			}
			r.ior = append(r.ior, c)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	err = e.step("setup.warmup", func() error {
		for i, inst := range r.clients {
			obj := fmt.Sprintf("warmup/rank%d", i)
			if err := inULT(inst, "warmup", func(self *abt.ULT) error {
				return r.ior[i].WriteOp(self, r.target, obj, make([]byte, mobjectSize))
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return r, err
}

func (r *mobjectRound) run(rec *recorder, parent uint64) ([]*opLog, error) {
	r.reads = make([][]sampleRead, mobjectClients)
	return runIssuers(r.clients, func(self *abt.ULT, c int, log *opLog) error {
		cl := r.ior[c]
		names, data := r.in.names[c], r.in.data[c]
		req := uint64(c) << 32
		for i := range names {
			if err := log.call(rec, parent, "mobject.WriteOp", req+uint64(i), true, func() error {
				return cl.WriteOp(self, r.target, names[i], data[i])
			}); err != nil {
				return err
			}
		}
		reads := make([]sampleRead, 0, len(names))
		for i := range names {
			s := sampleRead{key: names[i], want: data[i], got: make([]byte, mobjectSize)}
			if err := log.call(rec, parent, "mobject.ReadOp", req+uint64(i), false, func() error {
				n, err := cl.ReadOp(self, r.target, names[i], s.got)
				if err == nil && n > uint64(len(s.got)) {
					err = fmt.Errorf("mobject: read of %s reports %d bytes into a %d-byte buffer", names[i], n, len(s.got))
				}
				if err != nil {
					return err
				}
				s.got, s.found = s.got[:n], true
				return nil
			}); err != nil {
				return err
			}
			reads = append(reads, s)
		}
		r.reads[c] = reads
		return nil
	})
}

func (r *mobjectRound) audit() error {
	var sample []sampleRead
	for _, rs := range r.reads {
		sample = append(sample, rs...)
	}
	if len(sample) != mobjectClients*mobjectObjects {
		return fmt.Errorf("mobject: %d objects read back, %d written", len(sample), mobjectClients*mobjectObjects)
	}
	return auditMobject(sample)
}

// One mobject_write_op or mobject_read_op root RPC per client op; the
// sdskv/bake calls nest under it.
func (r *mobjectRound) issued() int { return 2 * mobjectClients * mobjectObjects }

func (r *mobjectRound) counters() map[string]float64 { return nil }

func (r *mobjectRound) close() error { return r.cluster.Shutdown() }
