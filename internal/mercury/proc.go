package mercury

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Op selects the direction of a Proc pass.
type Op int8

// Proc directions.
const (
	// OpEncode serializes fields into the wire buffer.
	OpEncode Op = iota
	// OpDecode parses fields from the wire buffer.
	OpDecode
)

// Proc errors.
var (
	ErrProcShort  = errors.New("mercury: proc buffer exhausted")
	ErrProcString = errors.New("mercury: string length out of range")
)

// Procable is the interface of RPC argument types. A single Proc method
// drives both serialization and deserialization, mirroring Mercury's
// hg_proc callbacks: the method visits each field in order and the Proc's
// direction decides whether the field is written or read.
type Procable interface {
	Proc(p *Proc) error
}

// Proc is a serialization cursor over a wire buffer.
type Proc struct {
	op  Op
	buf []byte
	off int
	err error
}

// NewEncoder returns a Proc that appends encoded fields to an internal
// buffer retrievable with Bytes.
func NewEncoder() *Proc { return &Proc{op: OpEncode} }

// NewDecoder returns a Proc that reads fields from buf.
func NewDecoder(buf []byte) *Proc { return &Proc{op: OpDecode, buf: buf} }

// procPool recycles Proc cursors so the per-call encode/decode on the
// RPC hot path (Forward, Respond, GetInput, GetOutput) does not allocate
// a cursor each time. Released Procs drop their buffer reference; arena
// buffers are pooled separately so they can grow in place and be handed
// between cursors.
var procPool = sync.Pool{New: func() any { return new(Proc) }}

// acquireEncoder returns a pooled Proc encoding by appending to dst
// (which may be nil or a recycled arena).
func acquireEncoder(dst []byte) *Proc {
	p := procPool.Get().(*Proc)
	p.op, p.buf, p.off, p.err = OpEncode, dst, 0, nil
	return p
}

// acquireDecoder returns a pooled Proc decoding from buf.
func acquireDecoder(buf []byte) *Proc {
	p := procPool.Get().(*Proc)
	p.op, p.buf, p.off, p.err = OpDecode, buf, 0, nil
	return p
}

// releaseProc returns a pooled Proc. The cursor must not be used after
// release; its buffer reference is cleared so pooled cursors never pin
// wire frames or arenas.
func releaseProc(p *Proc) {
	p.buf, p.off, p.err = nil, 0, nil
	procPool.Put(p)
}

// arenaMaxRetain bounds the capacity of buffers returned to the arena
// pool; occasional giant payloads are dropped to the GC rather than
// pinned forever by the pool.
const arenaMaxRetain = 1 << 20

// arenaPool recycles encode scratch buffers: grow-in-place during use,
// reset-on-put. Buffers are pooled as *[]byte to avoid the slice-header
// allocation a plain []byte interface conversion would cost.
var arenaPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// getArena returns a zero-length scratch buffer with retained capacity.
func getArena() *[]byte { return arenaPool.Get().(*[]byte) }

// putArena resets and recycles a scratch buffer. Pass the (possibly
// reallocated) slice back so grown capacity is retained for the next
// user. Must not be called while any live data aliases the buffer.
func putArena(a *[]byte, b []byte) {
	if cap(b) > arenaMaxRetain {
		return
	}
	*a = b[:0]
	arenaPool.Put(a)
}

// Op reports the direction of the pass.
func (p *Proc) Op() Op { return p.op }

// Err returns the first error encountered.
func (p *Proc) Err() error { return p.err }

// Buffer returns the encoded wire buffer (encode direction).
func (p *Proc) Buffer() []byte { return p.buf }

func (p *Proc) fail(err error) error {
	if p.err == nil {
		p.err = err
	}
	return p.err
}

func (p *Proc) take(n int) ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.off+n > len(p.buf) {
		return nil, p.fail(fmt.Errorf("%w: need %d have %d", ErrProcShort, n, len(p.buf)-p.off))
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

// Uint64 processes a fixed-width 64-bit unsigned field.
func (p *Proc) Uint64(v *uint64) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.buf = binary.LittleEndian.AppendUint64(p.buf, *v)
		return nil
	}
	b, err := p.take(8)
	if err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint64(b)
	return nil
}

// Uint32 processes a fixed-width 32-bit unsigned field.
func (p *Proc) Uint32(v *uint32) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.buf = binary.LittleEndian.AppendUint32(p.buf, *v)
		return nil
	}
	b, err := p.take(4)
	if err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint32(b)
	return nil
}

// Uint16 processes a fixed-width 16-bit unsigned field.
func (p *Proc) Uint16(v *uint16) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.buf = binary.LittleEndian.AppendUint16(p.buf, *v)
		return nil
	}
	b, err := p.take(2)
	if err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint16(b)
	return nil
}

// Uint8 processes a single byte field.
func (p *Proc) Uint8(v *uint8) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.buf = append(p.buf, *v)
		return nil
	}
	b, err := p.take(1)
	if err != nil {
		return err
	}
	*v = b[0]
	return nil
}

// Int64 processes a signed 64-bit field.
func (p *Proc) Int64(v *int64) error {
	u := uint64(*v)
	if err := p.Uint64(&u); err != nil {
		return err
	}
	*v = int64(u)
	return nil
}

// Int processes an int field as 64 bits.
func (p *Proc) Int(v *int) error {
	i := int64(*v)
	if err := p.Int64(&i); err != nil {
		return err
	}
	*v = int(i)
	return nil
}

// Bool processes a boolean field.
func (p *Proc) Bool(v *bool) error {
	var b uint8
	if *v {
		b = 1
	}
	if err := p.Uint8(&b); err != nil {
		return err
	}
	*v = b != 0
	return nil
}

// Float64 processes a 64-bit float field.
func (p *Proc) Float64(v *float64) error {
	u := math.Float64bits(*v)
	if err := p.Uint64(&u); err != nil {
		return err
	}
	*v = math.Float64frombits(u)
	return nil
}

// maxBlob bounds decoded variable-length fields so corrupt lengths fail
// instead of attempting enormous allocations.
const maxBlob = 1 << 30

// Bytes processes a length-prefixed byte slice.
func (p *Proc) Bytes(v *[]byte) error {
	if p.op == OpEncode {
		n := uint32(len(*v))
		if err := p.Uint32(&n); err != nil {
			return err
		}
		if p.err == nil {
			p.buf = append(p.buf, *v...)
		}
		return p.err
	}
	var n uint32
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if n > maxBlob {
		return p.fail(fmt.Errorf("%w: %d", ErrProcString, n))
	}
	b, err := p.take(int(n))
	if err != nil {
		return err
	}
	// Reuse the caller's capacity when it suffices: decoding into a
	// recycled struct is then allocation-free. Fresh (nil) destinations
	// allocate exactly as before, so decoded slices that the caller
	// retains (e.g. KV keys stored by a handler) are never aliased to a
	// pooled buffer unless the caller opted in by recycling the struct.
	if cap(*v) >= int(n) && *v != nil {
		out := (*v)[:n]
		copy(out, b)
		*v = out
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	*v = out
	return nil
}

// String processes a length-prefixed string.
func (p *Proc) String(v *string) error {
	if p.op == OpEncode {
		b := []byte(*v)
		return p.Bytes(&b)
	}
	var b []byte
	if err := p.Bytes(&b); err != nil {
		return err
	}
	*v = string(b)
	return nil
}

// StringSlice processes a slice of strings.
func (p *Proc) StringSlice(v *[]string) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.op == OpDecode {
		if n > maxBlob {
			return p.fail(fmt.Errorf("%w: %d", ErrProcString, n))
		}
		*v = make([]string, n)
	}
	for i := range *v {
		if err := p.String(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// BytesSlice processes a slice of byte slices.
func (p *Proc) BytesSlice(v *[][]byte) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.op == OpDecode {
		if n > maxBlob {
			return p.fail(fmt.Errorf("%w: %d", ErrProcString, n))
		}
		if cap(*v) >= int(n) && *v != nil {
			*v = (*v)[:n]
		} else {
			*v = make([][]byte, n)
		}
	}
	for i := range *v {
		if err := p.Bytes(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// Uint64Slice processes a slice of uint64 values.
func (p *Proc) Uint64Slice(v *[]uint64) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.op == OpDecode {
		if n > maxBlob/8 {
			return p.fail(fmt.Errorf("%w: %d", ErrProcString, n))
		}
		if cap(*v) >= int(n) && *v != nil {
			*v = (*v)[:n]
		} else {
			*v = make([]uint64, n)
		}
	}
	for i := range *v {
		if err := p.Uint64(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// Encode serializes a Procable to a freshly allocated buffer. The
// cursor comes from the pool; only the exact-size result escapes.
func Encode(v Procable) ([]byte, error) {
	arena := getArena()
	out, err := AppendEncode(*arena, v)
	if err != nil {
		putArena(arena, out)
		return nil, err
	}
	buf := make([]byte, len(out))
	copy(buf, out)
	putArena(arena, out)
	return buf, nil
}

// AppendEncode serializes a Procable by appending to dst and returns the
// extended slice. When dst has sufficient capacity the call performs no
// allocations — this is the arena-backed hot-path entry point.
func AppendEncode(dst []byte, v Procable) ([]byte, error) {
	p := acquireEncoder(dst)
	err := v.Proc(p)
	if err == nil {
		err = p.Err()
	}
	out := p.buf
	releaseProc(p)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Decode parses a Procable from bytes using a pooled cursor.
func Decode(buf []byte, v Procable) error {
	p := acquireDecoder(buf)
	err := v.Proc(p)
	if err == nil {
		err = p.Err()
	}
	releaseProc(p)
	return err
}

// RawBytes adapts a plain byte payload to Procable.
type RawBytes []byte

// Proc implements Procable.
func (r *RawBytes) Proc(p *Proc) error {
	b := []byte(*r)
	if err := p.Bytes(&b); err != nil {
		return err
	}
	*r = RawBytes(b)
	return nil
}

// Void is an empty argument/response type.
type Void struct{}

// Proc implements Procable.
func (Void) Proc(*Proc) error { return nil }
