package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceSink consumes trace events as the measurement pipeline emits
// them. The collector's in-memory shard rings are the default buffer; a
// sink attached via Collector.AddTraceSink additionally observes the
// live stream, so exporters (JSONL files, Zipkin/OTLP adapters) consume
// events instead of owning the buffers.
type TraceSink interface {
	// WriteEvent consumes one event. Implementations are called from
	// hot measurement paths and must be safe for concurrent use.
	WriteEvent(ev Event) error
	// Flush forces any buffered output out (end of run).
	Flush() error
}

// Tracer is the default in-memory TraceSink: events accumulate in its
// bounded buffer for end-of-run snapshots.
var _ TraceSink = (*Tracer)(nil)

// WriteEvent implements TraceSink over the bounded in-memory buffer.
func (t *Tracer) WriteEvent(ev Event) error {
	t.Emit(ev)
	return nil
}

// Flush implements TraceSink; the in-memory buffer needs no flushing.
func (t *Tracer) Flush() error { return nil }

// JSONLTraceSink streams trace events as JSON Lines (one event object
// per line) to an io.Writer — the low-overhead on-line export format,
// ingestible with ReadEventsJSONL (and symtrace -jsonl). Writes are
// serialized by an internal mutex; the buffered encoder keeps the
// per-event cost to one marshal plus a memory copy.
//
// Write errors are sticky: the first failure is retained and reported by
// every subsequent WriteEvent and Flush, so an exporter that only checks
// the final Flush (e.g. margo's Shutdown) still observes mid-run losses.
type JSONLTraceSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLTraceSink wraps w in a streaming JSONL trace sink.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink {
	bw := bufio.NewWriter(w)
	return &JSONLTraceSink{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteEvent appends one event as a JSON line.
func (s *JSONLTraceSink) WriteEvent(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(&ev); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Flush drains the buffered output to the underlying writer, returning
// the first error the sink has seen (including earlier write failures).
func (s *JSONLTraceSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Err reports the sink's sticky error, if any.
func (s *JSONLTraceSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadEventsJSONL parses a JSONL trace event stream (the JSONLTraceSink
// format) back into events. A truncated final line — the signature of a
// streaming sink cut off mid-write (SIGINT, crashed process, full disk)
// — is tolerated rather than fatal: the parsed prefix is returned along
// with the count of discarded trailing lines, so one interrupted stream
// does not abort a whole-run analysis. A malformed line that is NOT the
// last line of the stream still fails: that is corruption, not
// truncation.
func ReadEventsJSONL(r io.Reader) (events []Event, truncated int, err error) {
	sc := bufio.NewScanner(r)
	// Events with fused PVAR samples run long; size the line buffer
	// well past anything the sink emits.
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var pendingErr error
	var pendingLine int
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		line++
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line had complete lines after it: corruption.
			return nil, 0, fmt.Errorf("core: parse JSONL trace event at line %d: %w", pendingLine, pendingErr)
		}
		var ev Event
		if jerr := json.Unmarshal(raw, &ev); jerr != nil {
			// Hold the verdict: only fatal if more lines follow.
			pendingErr, pendingLine = jerr, line
			continue
		}
		events = append(events, ev)
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, fmt.Errorf("core: read JSONL trace stream: %w", serr)
	}
	if pendingErr != nil {
		truncated = 1
	}
	return events, truncated, nil
}
