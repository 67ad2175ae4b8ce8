package main

import (
	"bytes"
	"fmt"
)

// Output audits. Each takes what the program returned next to what the
// generated inputs say it must return, so a corrupted result is caught
// no matter which layer corrupted it. An audit error fails the run.

// sampleRead is one read-back of a stored record.
type sampleRead struct {
	key   string
	want  []byte
	got   []byte
	found bool
}

// auditHEPnOS checks that the servers hold exactly the acked events and
// that every sampled LoadEvent returned the generator's bytes.
func auditHEPnOS(storedPerServer []int, acked int, sample []sampleRead) error {
	stored := 0
	for _, n := range storedPerServer {
		stored += n
	}
	if stored != acked {
		return fmt.Errorf("hepnos: servers hold %d events, %d were acked", stored, acked)
	}
	return auditReads("hepnos LoadEvent", sample)
}

// auditMobject checks that every object read back equals the bytes
// written under its name.
func auditMobject(sample []sampleRead) error { return auditReads("mobject ReadOp", sample) }

func auditReads(what string, sample []sampleRead) error {
	for _, s := range sample {
		if !s.found {
			return fmt.Errorf("%s %s: not found", what, s.key)
		}
		if !bytes.Equal(s.got, s.want) {
			return fmt.Errorf("%s %s: read %d bytes that differ from the %d written", what, s.key, len(s.got), len(s.want))
		}
	}
	return nil
}

// queryCheck is one ExecQuery next to the ids the generated records
// say it matches.
type queryCheck struct {
	expr string
	want []uint64
	got  []uint64
}

// auditSonata checks the collection size against the records stored
// and every query's matches against the ids computed from the inputs.
func auditSonata(size uint64, stored int, queries []queryCheck) error {
	if size != uint64(stored) {
		return fmt.Errorf("sonata: collection holds %d records, %d were stored", size, stored)
	}
	for _, q := range queries {
		if len(q.got) != len(q.want) {
			return fmt.Errorf("sonata: query %q matched %d records, inputs give %d", q.expr, len(q.got), len(q.want))
		}
		for i := range q.want {
			if q.got[i] != q.want[i] {
				return fmt.Errorf("sonata: query %q match %d is record %d, inputs give %d", q.expr, i, q.got[i], q.want[i])
			}
		}
	}
	return nil
}

// kvRead is one final read of an acked key.
type kvRead struct {
	val   string
	found bool
}

// auditEKV checks that every acked put reads back with the last value
// acked for its key.
func auditEKV(acked map[string]string, final map[string]kvRead) error {
	lost := 0
	var first string
	for k, want := range acked {
		r, ok := final[k]
		if !ok || !r.found || r.val != want {
			if lost == 0 {
				first = k
			}
			lost++
		}
	}
	if lost > 0 {
		return fmt.Errorf("ekv: %d acked puts lost or stale, first %q", lost, first)
	}
	return nil
}
