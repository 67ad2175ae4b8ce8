package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"

	"symbiosys/internal/abt"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/sonata"
)

// sonata_json: one client and one Sonata server on separate nodes. The
// client stores pre-generated ~256 B JSON records in the paper's
// 5,000-record batches (each far past the 4 KiB eager limit, so Mercury
// moves it by internal RDMA), then runs filter queries whose matches
// the benchmark computes from the records itself.
const (
	sonataRecords    = 25_000 // per round
	sonataBatch      = 5_000
	sonataRecordSize = 256
	sonataQueries    = 24 // per round
	sonataEagerLimit = 4096
	sonataHandlerES  = 4
	sonataColl       = "records"
)

type sonataRecord struct {
	energy float64 // hundredths, so JSON and query literals round-trip
	det    int
	layer  int
	valid  bool
}

// sonataQuery is a filter expression with the predicate the benchmark
// evaluates itself to know its matches.
type sonataQuery struct {
	expr  string
	match func(r sonataRecord) bool
}

type sonataInput struct {
	docs    [][]byte
	recs    []sonataRecord
	queries []sonataQuery
	want    [][]uint64 // matching record ids per query
}

func (in *sonataInput) feed(w io.Writer) {
	for _, d := range in.docs {
		w.Write(d)
	}
	for _, q := range in.queries {
		io.WriteString(w, q.expr)
	}
}

func fmtEnergy(e float64) string { return strconv.FormatFloat(e, 'f', -1, 64) }

func genSonata(seed uint64) input {
	rng := rand.New(rand.NewPCG(seed, 0x534f4e415441))
	in := &sonataInput{}
	for i := 0; i < sonataRecords; i++ {
		r := sonataRecord{energy: float64(rng.IntN(10_000)) / 100, det: rng.IntN(4),
			layer: rng.IntN(7), valid: rng.IntN(2) == 0}
		head := fmt.Sprintf(`{"id":%d,"energy":%s,"detector":{"name":"det-%d","layer":%d},"valid":%t,"payload":"`,
			i, fmtEnergy(r.energy), r.det, r.layer, r.valid)
		pad := make([]byte, sonataRecordSize-len(head)-2)
		for j := range pad {
			pad[j] = 'a' + byte(rng.IntN(26))
		}
		in.docs = append(in.docs, []byte(head+string(pad)+`"}`))
		in.recs = append(in.recs, r)
	}
	for q := 0; q < sonataQueries; q++ {
		var sq sonataQuery
		switch q % 3 {
		case 0: // energy window, ~3% of records
			lo := float64(rng.IntN(9_700)) / 100
			hi := lo + 3
			sq = sonataQuery{fmt.Sprintf("energy >= %s && energy < %s", fmtEnergy(lo), fmtEnergy(hi)),
				func(r sonataRecord) bool { return r.energy >= lo && r.energy < hi }}
		case 1: // one layer's valid records, ~7%
			layer := rng.IntN(7)
			sq = sonataQuery{fmt.Sprintf("detector.layer == %d && valid == true", layer),
				func(r sonataRecord) bool { return r.layer == layer && r.valid }}
		default: // one detector's low-energy hits, ~2%
			det := rng.IntN(4)
			cut := float64(5 + rng.IntN(6))
			sq = sonataQuery{fmt.Sprintf(`detector.name == "det-%d" && !(energy >= %s)`, det, fmtEnergy(cut)),
				func(r sonataRecord) bool { return r.det == det && !(r.energy >= cut) }}
		}
		var ids []uint64
		for i, r := range in.recs {
			if sq.match(r) {
				ids = append(ids, uint64(i))
			}
		}
		in.queries = append(in.queries, sq)
		in.want = append(in.want, ids)
	}
	return in
}

type sonataRound struct {
	in      *sonataInput
	cluster *experiments.Cluster
	target  string
	client  *margo.Instance
	sonata  *sonata.Client
	checks  []queryCheck
	size    uint64
}

func deploySonata(e *env, inp input) (round, error) {
	in := inp.(*sonataInput)
	r := &sonataRound{in: in, cluster: e.cluster}
	var srv *margo.Instance
	err := e.step("setup.process_start", func() error {
		var err error
		srv, err = e.start(experiments.ProcessOptions{Mode: margo.ModeServer, Node: "node1",
			Name: "sonata", HandlerStreams: sonataHandlerES, EagerLimit: sonataEagerLimit})
		if err != nil {
			return err
		}
		r.client, err = e.start(experiments.ProcessOptions{Mode: margo.ModeClient, Node: "node0",
			Name: "bench", EagerLimit: sonataEagerLimit})
		return err
	})
	if err != nil {
		return r, err
	}
	r.target = srv.Addr()
	err = e.step("setup.provider_register", func() error {
		if _, err := sonata.RegisterProvider(srv, sonata.Config{}); err != nil {
			return err
		}
		r.sonata, err = sonata.NewClient(r.client)
		return err
	})
	if err != nil {
		return r, err
	}
	err = e.step("setup.warmup", func() error {
		return inULT(r.client, "warmup", func(self *abt.ULT) error {
			return r.sonata.CreateCollection(self, r.target, sonataColl)
		})
	})
	return r, err
}

func (r *sonataRound) run(rec *recorder, parent uint64) ([]*opLog, error) {
	return runIssuers([]*margo.Instance{r.client}, func(self *abt.ULT, _ int, log *opLog) error {
		for b := 0; b < sonataRecords; b += sonataBatch {
			batch := r.in.docs[b : b+sonataBatch]
			if err := log.call(rec, parent, "sonata.StoreMultiJSON", uint64(b), true, func() error {
				first, err := r.sonata.StoreMultiJSON(self, r.target, sonataColl, batch)
				if err == nil && first != uint64(b) {
					err = fmt.Errorf("sonata: batch at %d stored from id %d", b, first)
				}
				return err
			}); err != nil {
				return err
			}
		}
		// One op per record stored, as the paper counts Sonata's load.
		log.attempted += sonataRecords - sonataRecords/sonataBatch
		r.checks = r.checks[:0]
		for q, sq := range r.in.queries {
			check := queryCheck{expr: sq.expr, want: r.in.want[q]}
			if err := log.call(rec, parent, "sonata.ExecQuery", uint64(q), false, func() error {
				var err error
				check.got, _, err = r.sonata.ExecQuery(self, r.target, sonataColl, sq.expr, 0)
				return err
			}); err != nil {
				return err
			}
			r.checks = append(r.checks, check)
		}
		var err error
		r.size, err = r.sonata.CollectionSize(self, r.target, sonataColl)
		return err
	})
}

func (r *sonataRound) audit() error { return auditSonata(r.size, sonataRecords, r.checks) }

// One RPC per batch, per query, and the audit's size query.
func (r *sonataRound) issued() int { return sonataRecords/sonataBatch + sonataQueries + 1 }

func (r *sonataRound) counters() map[string]float64 { return nil }

func (r *sonataRound) close() error { return r.cluster.Shutdown() }
