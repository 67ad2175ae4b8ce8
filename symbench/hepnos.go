package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/hepnos"
	"symbiosys/internal/services/sdskv"
)

// hepnos_load: the paper's C5–C7 regime (batch size 1, OFI_max_events
// 64, dedicated client progress ES), 2 loaders × 2 servers.
const (
	hepnosClients      = 2
	hepnosServers      = 2
	hepnosEvents       = 8192 // per client per round
	hepnosEventSize    = 512
	hepnosSample       = 1024 // LoadEvent read-backs per client per round
	hepnosWindow       = 64   // async flush window (pipelining depth)
	hepnosDatabases    = 8    // per server
	hepnosHandlerES    = 4    // per server
	hepnosOFIMaxEvents = 64
)

type hepnosInput struct {
	keys    [][]hepnos.EventKey // [client][i]
	data    [][][]byte          // [client][i]
	samples [][]int             // [client] indices read back
}

func (in *hepnosInput) feed(w io.Writer) {
	for c := range in.keys {
		for i, k := range in.keys[c] {
			io.WriteString(w, k.String())
			w.Write(in.data[c][i])
		}
		for _, i := range in.samples[c] {
			binary.Write(w, binary.LittleEndian, int64(i))
		}
	}
}

func genHEPnOS(seed uint64) input {
	rng := rand.New(rand.NewPCG(seed, 0x4845504e4f53))
	in := &hepnosInput{}
	for c := 0; c < hepnosClients; c++ {
		run := rng.Uint64N(1 << 20)
		keys := make([]hepnos.EventKey, hepnosEvents)
		data := make([][]byte, hepnosEvents)
		for i := range keys {
			keys[i] = hepnos.EventKey{DataSet: fmt.Sprintf("bench/loader%d", c),
				Run: run + uint64(i/1000), SubRun: uint64(i/100) % 10, Event: uint64(i)}
			data[i] = make([]byte, hepnosEventSize)
			for j := 0; j < len(data[i]); j += 8 {
				binary.LittleEndian.PutUint64(data[i][j:], rng.Uint64())
			}
		}
		in.keys = append(in.keys, keys)
		in.data = append(in.data, data)
		in.samples = append(in.samples, rng.Perm(hepnosEvents)[:hepnosSample])
	}
	return in
}

type hepnosRound struct {
	in      *hepnosInput
	servers []*hepnos.Server
	clients []*margo.Instance
	loaders []*hepnos.Client
	cluster *experiments.Cluster
	acked   []int
	reads   [][]sampleRead
}

func deployHEPnOS(e *env, inp input) (round, error) {
	in := inp.(*hepnosInput)
	r := &hepnosRound{in: in, cluster: e.cluster}
	var srvInsts []*margo.Instance
	err := e.step("setup.process_start", func() error {
		for i := 0; i < hepnosServers; i++ {
			inst, err := e.start(experiments.ProcessOptions{Mode: margo.ModeServer,
				Node: "server-node0", Name: fmt.Sprintf("hepnos%d", i),
				HandlerStreams: hepnosHandlerES, OFIMaxEvents: hepnosOFIMaxEvents})
			if err != nil {
				return err
			}
			srvInsts = append(srvInsts, inst)
		}
		for i := 0; i < hepnosClients; i++ {
			inst, err := e.start(experiments.ProcessOptions{Mode: margo.ModeClient,
				Node: fmt.Sprintf("client-node%d", i), Name: fmt.Sprintf("loader%d", i),
				DedicatedProgressES: true, OFIMaxEvents: hepnosOFIMaxEvents})
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
		var infos []hepnos.ServerInfo
		for _, inst := range srvInsts {
			srv, err := hepnos.NewServer(inst, hepnosDatabases, "map",
				sdskv.Config{PutCostPerKey: 10 * time.Microsecond})
			if err != nil {
				return err
			}
			r.servers = append(r.servers, srv)
			infos = append(infos, hepnos.ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
		}
		for _, inst := range r.clients {
			c, err := hepnos.NewClient(inst, infos, hepnos.Options{BatchSize: 1, MaxInflight: hepnosWindow})
			if err != nil {
				return err
			}
			r.loaders = append(r.loaders, c)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	err = e.step("setup.warmup", func() error {
		for i, inst := range r.clients {
			err := inULT(inst, "warmup", func(self *abt.ULT) error {
				_, found, err := r.loaders[i].LoadEvent(self, hepnos.EventKey{DataSet: "warmup"})
				if err == nil && found {
					err = fmt.Errorf("warm-up key found in a fresh deployment")
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return r, err
}

func (r *hepnosRound) run(rec *recorder, parent uint64) ([]*opLog, error) {
	r.acked = make([]int, hepnosClients)
	r.reads = make([][]sampleRead, hepnosClients)
	return runIssuers(r.clients, func(self *abt.ULT, c int, log *opLog) error {
		loader := r.loaders[c]
		keys, data := r.in.keys[c], r.in.data[c]
		req := uint64(c) << 32
		for i := range keys {
			if err := log.call(rec, parent, "hepnos.StoreEvent", req+uint64(i), true, func() error {
				return loader.StoreEvent(self, keys[i], data[i])
			}); err != nil {
				return err
			}
		}
		// Flush waits out the async window: an event is acked once its
		// put_packed completed.
		var ferr error
		rec.time(parent, "hepnos.Flush", req, func() { ferr = loader.Flush(self) })
		if ferr != nil {
			return ferr
		}
		r.acked[c] = int(loader.Stored())
		reads := make([]sampleRead, 0, len(r.in.samples[c]))
		for _, i := range r.in.samples[c] {
			s := sampleRead{key: keys[i].String(), want: data[i]}
			if err := log.call(rec, parent, "hepnos.LoadEvent", req+uint64(i), false, func() error {
				var err error
				s.got, s.found, err = loader.LoadEvent(self, keys[i])
				return err
			}); err != nil {
				return err
			}
			reads = append(reads, s)
		}
		r.reads[c] = reads
		return nil
	})
}

func (r *hepnosRound) audit() error {
	var stored []int
	for _, s := range r.servers {
		stored = append(stored, s.StoredEvents())
	}
	acked := 0
	var sample []sampleRead
	for c := range r.acked {
		acked += r.acked[c]
		sample = append(sample, r.reads[c]...)
	}
	return auditHEPnOS(stored, acked, sample)
}

// Batch size 1: one put_packed per event, one get per read-back.
func (r *hepnosRound) issued() int { return hepnosClients * (hepnosEvents + hepnosSample) }

func (r *hepnosRound) counters() map[string]float64 { return nil }

func (r *hepnosRound) close() error { return r.cluster.Shutdown() }
