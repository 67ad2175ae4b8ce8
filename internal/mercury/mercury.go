// Package mercury is an RPC framework modeled on Mercury, the RPC layer
// of the Mochi stack. It provides registered RPCs identified by name
// hash, a proc-based binary codec, an eager request path with an internal
// RDMA fallback when request metadata overflows the eager buffer, a bulk
// transfer interface for large data, and a callback-driven completion
// model progressed explicitly by the caller (Progress/Trigger).
//
// The package also exports the SYMBIOSYS performance-variable (PVAR)
// interface (see the pvar subpackage): library-global PVARs such as the
// completion-queue size and handle-bound PVARs such as per-RPC
// (de)serialization timers, per the paper's Tables I and II.
package mercury

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

// Errors returned by RPC operations.
var (
	ErrCanceled    = errors.New("mercury: operation canceled")
	ErrUnknownRPC  = errors.New("mercury: RPC not registered at target")
	ErrHandlerFail = errors.New("mercury: remote handler failed")
	ErrDestroyed   = errors.New("mercury: handle destroyed")
	ErrRPCRegister = errors.New("mercury: RPC registration conflict")
	// ErrOverloaded reports a request shed by the target's admission
	// control before any handler ran. The operation had no effect and is
	// safe to retry after backoff.
	ErrOverloaded = errors.New("mercury: target overloaded, request shed")
	// ErrDeadlineExpired reports a request the target rejected because
	// its propagated deadline had already passed.
	ErrDeadlineExpired = errors.New("mercury: request deadline expired at target")
)

// Config tunes a Mercury instance.
type Config struct {
	// EagerLimit is the number of request-metadata bytes sent eagerly;
	// larger serialized inputs trigger an internal RDMA transfer for the
	// remainder (paper §III-C1). Default 4096.
	EagerLimit int
	// OFIMaxEvents bounds how many network completion events one
	// Progress call reads — the paper's OFI_max_events, default 16
	// (paper §V-C4).
	OFIMaxEvents int
}

func (c *Config) fillDefaults() {
	if c.EagerLimit <= 0 {
		c.EagerLimit = 4096
	}
	if c.OFIMaxEvents <= 0 {
		c.OFIMaxEvents = 16
	}
}

// HandlerFunc services an incoming RPC. It runs inside Trigger on the
// caller's progress context; implementations that need concurrency (all
// real services) immediately hand the handle to a ULT.
type HandlerFunc func(h *Handle)

// ForwardCallback completes a Forward.
type ForwardCallback func(h *Handle, err error)

type rpcDef struct {
	id      uint32
	name    string
	handler HandlerFunc
}

// Class is one Mercury instance: an endpoint plus its registered RPCs,
// posted handles, completion queue, and PVAR registry. A virtual process
// owns exactly one Class.
type Class struct {
	ep  *na.Endpoint
	cfg Config

	// ofiMax is the live OFI_max_events bound. It lives outside cfg
	// because SetOFIMaxEvents retunes it from policy/monitor goroutines
	// while the progress loop reads it every iteration.
	ofiMax atomic.Int64

	mu     sync.Mutex
	rpcs   map[uint32]*rpcDef
	posted map[uint64]*Handle

	cookieSeq atomic.Uint64

	cmu         sync.Mutex
	completions []completion

	// evBuf is the reusable event buffer for Progress's bounded read,
	// guarded by progMu (one progress ULT drives Progress in practice,
	// but nothing enforces that at this layer).
	progMu sync.Mutex
	evBuf  []na.Event

	pvars *pvar.Registry

	// PVAR backing values (Table II).
	postedLevel    pvar.Level
	cqLevel        pvar.Level
	ofiRead        pvar.Level
	rpcsInvoked    pvar.Counter
	rpcsHandled    pvar.Counter
	responsesSent  pvar.Counter
	eagerOverflows pvar.Counter
	staleResponses pvar.Counter
	bulkBytes      pvar.Counter
	sendErrors     pvar.Counter

	// Vectored-frame counters (batching layer).
	batchesForwarded    pvar.Counter
	batchedOpsForwarded pvar.Counter
	batchesHandled      pvar.Counter
	batchedOpsHandled   pvar.Counter
}

// completion is a queued callback plus its enqueue instant (t12 for
// response completions; the residence until Trigger is the origin
// completion callback delay).
type completion struct {
	run func(enqueued time.Time)
	enq time.Time
}

// NewClass creates a Mercury instance bound to a fabric endpoint.
func NewClass(ep *na.Endpoint, cfg Config) *Class {
	cfg.fillDefaults()
	c := &Class{
		ep:     ep,
		cfg:    cfg,
		rpcs:   make(map[uint32]*rpcDef),
		posted: make(map[uint64]*Handle),
		pvars:  pvar.NewRegistry(),
	}
	c.ofiMax.Store(int64(cfg.OFIMaxEvents))
	c.registerPVars()
	return c
}

// Addr returns the instance's fabric address.
func (c *Class) Addr() string { return c.ep.Addr() }

// Config returns the instance configuration, with OFIMaxEvents
// reflecting any runtime retuning via SetOFIMaxEvents.
func (c *Class) Config() Config {
	cfg := c.cfg
	cfg.OFIMaxEvents = int(c.ofiMax.Load())
	return cfg
}

// PVars returns the instance's performance-variable registry.
func (c *Class) PVars() *pvar.Registry { return c.pvars }

// SetOFIMaxEvents adjusts the per-progress completion read bound at
// runtime (used by the paper's C5→C6 remediation).
func (c *Class) SetOFIMaxEvents(n int) {
	if n > 0 {
		c.ofiMax.Store(int64(n))
	}
}

// OFIMaxEvents reports the live per-progress completion read bound.
func (c *Class) OFIMaxEvents() int { return int(c.ofiMax.Load()) }

// hashRPC derives the stable 32-bit identifier of an RPC name.
func hashRPC(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// Register installs an RPC by name. Clients that only forward a given
// RPC pass a nil handler. Registering the same name twice replaces a nil
// handler but conflicts on a non-nil one; distinct names that collide in
// the 32-bit id space are rejected.
func (c *Class) Register(name string, handler HandlerFunc) error {
	id := hashRPC(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.rpcs[id]; ok {
		if old.name != name {
			return fmt.Errorf("%w: %q collides with %q", ErrRPCRegister, name, old.name)
		}
		if old.handler != nil && handler != nil {
			return fmt.Errorf("%w: %q already has a handler", ErrRPCRegister, name)
		}
		if handler != nil {
			old.handler = handler
		}
		return nil
	}
	c.rpcs[id] = &rpcDef{id: id, name: name, handler: handler}
	return nil
}

// RPCName resolves a registered RPC id to its name.
func (c *Class) RPCName(id uint32) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.rpcs[id]
	if !ok {
		return "", false
	}
	return d.name, true
}

// enqueue adds a ready callback to the internal completion queue.
func (c *Class) enqueue(fn func(enqueued time.Time)) {
	c.cmu.Lock()
	c.completions = append(c.completions, completion{run: fn, enq: time.Now()})
	n := int64(len(c.completions))
	c.cmu.Unlock()
	c.cqLevel.Set(n)
}

// Progress reads up to OFIMaxEvents network completion events and
// converts them into queued callbacks. If no events are immediately
// available it waits up to timeout for one. It returns the number of
// events read — the value of the num_ofi_events_read PVAR.
func (c *Class) Progress(timeout time.Duration) int {
	max := int(c.ofiMax.Load())
	c.progMu.Lock()
	defer c.progMu.Unlock()
	evs := c.ep.PollInto(c.evBuf, max)
	if len(evs) == 0 && timeout > 0 && c.ep.Wait(timeout) {
		evs = c.ep.PollInto(c.evBuf, max)
	}
	if cap(evs) > cap(c.evBuf) {
		c.evBuf = evs[:0]
	}
	c.ofiRead.Set(int64(len(evs)))
	for _, ev := range evs {
		c.dispatch(ev)
	}
	// Drop message and context references so the retained buffer does
	// not pin payloads of already-dispatched events.
	clear(evs)
	return len(evs)
}

// Trigger runs up to max queued callbacks, returning how many ran.
func (c *Class) Trigger(max int) int {
	ran := 0
	for ran < max {
		c.cmu.Lock()
		if len(c.completions) == 0 {
			c.cmu.Unlock()
			break
		}
		comp := c.completions[0]
		copy(c.completions, c.completions[1:])
		c.completions[len(c.completions)-1] = completion{}
		c.completions = c.completions[:len(c.completions)-1]
		n := int64(len(c.completions))
		c.cmu.Unlock()
		c.cqLevel.Set(n)
		comp.run(comp.enq)
		ran++
	}
	return ran
}

// NetworkPending reports completion events still waiting in the network
// layer (not yet read by Progress) — the paper's clogged-OFI-queue
// signal.
func (c *Class) NetworkPending() int { return c.ep.Pending() }

// dispatch converts one network event into completion-queue work.
func (c *Class) dispatch(ev na.Event) {
	switch ev.Kind {
	case na.EvRecv:
		if ev.Msg.Tag == na.TagUnexpected {
			c.handleRequest(ev.Msg)
		} else {
			c.handleResponse(ev.Msg)
		}
	case na.EvRDMADone:
		switch ctx := ev.Ctx.(type) {
		case *rdmaReqCtx:
			ctx.h.RDMATime.Stop()
			c.deliver(ctx.h)
		case *bulkCtx:
			cb := ctx.cb
			c.enqueue(func(time.Time) { cb(nil) })
		}
	case na.EvSendDone:
		switch ctx := ev.Ctx.(type) {
		case *respondCtx:
			cb := ctx.cb
			if cb != nil {
				c.enqueue(func(time.Time) { cb(nil) })
			}
		case *batchRespondCtx:
			// The batch reply hit the wire: every member's completion
			// callback shares this t13.
			bt := ctx.bt
			c.enqueue(func(time.Time) { bt.complete(nil) })
		case *forwardSendCtx:
			// Request hit the wire; completion comes with the response.
		}
	case na.EvError:
		c.sendErrors.Inc()
		switch ctx := ev.Ctx.(type) {
		case *forwardSendCtx:
			h, err := ctx.h, ev.Err
			c.unpost(h)
			c.enqueue(func(time.Time) { h.completeForward(err) })
		case *respondCtx:
			cb, err := ctx.cb, ev.Err
			if cb != nil {
				c.enqueue(func(time.Time) { cb(err) })
			}
		case *batchRespondCtx:
			bt, err := ctx.bt, ev.Err
			c.enqueue(func(time.Time) { bt.complete(err) })
		case *bulkCtx:
			cb, err := ctx.cb, ev.Err
			c.enqueue(func(time.Time) { cb(err) })
		case *rdmaReqCtx:
			// Request metadata fetch failed; drop the request. The
			// origin will observe a cancel/timeout at a higher layer.
		}
	}
}

// handleRequest processes an incoming unexpected message (a request).
func (c *Class) handleRequest(msg *na.Message) {
	var hdr reqHeader
	eager, err := unpackFrame(msg.Data, &hdr)
	if err != nil {
		return // malformed; drop
	}
	if hdr.Flags&flagBatch != 0 {
		c.handleBatchRequest(msg.From, &hdr, eager)
		return
	}
	h := &Handle{
		class:  c,
		cookie: hdr.Cookie,
		rpcID:  hdr.RPCID,
		peer:   msg.From,
		target: c.Addr(),
		isTgt:  true,
		meta: Meta{
			HasTrace:      hdr.Flags&flagTrace != 0,
			Breadcrumb:    hdr.Breadcrumb,
			RequestID:     hdr.RequestID,
			Order:         hdr.Order,
			DeadlineNanos: hdr.DeadlineNanos,
			Priority:      hdr.Priority,
		},
	}
	if hdr.Flags&flagMore == 0 {
		h.reqPayload = eager
		c.deliver(h)
		return
	}
	// Metadata overflowed the eager buffer: pull the remainder with an
	// internal RDMA get before the request is delivered (t3→t4).
	buf := make([]byte, int(hdr.TotalLen))
	copy(buf, eager)
	h.reqPayload = buf
	h.RDMATime.Start()
	c.ep.Get(hdr.Mem, 0, buf[len(eager):], &rdmaReqCtx{h: h})
}

// deliver queues handler invocation for a fully received request.
func (c *Class) deliver(h *Handle) {
	c.mu.Lock()
	def := c.rpcs[h.rpcID]
	c.mu.Unlock()
	if def == nil || def.handler == nil {
		// Unknown RPC: answer with an error status so the origin fails
		// fast instead of timing out.
		c.enqueue(func(time.Time) {
			h.respondStatus(statusUnknownRPC, nil, Meta{}, nil)
		})
		return
	}
	h.rpcName = def.name
	c.rpcsHandled.Inc()
	handler := def.handler
	c.enqueue(func(time.Time) { handler(h) })
}

// handleResponse matches a response message to its posted handle.
func (c *Class) handleResponse(msg *na.Message) {
	c.mu.Lock()
	h, ok := c.posted[msg.Tag]
	if ok {
		delete(c.posted, msg.Tag)
	}
	c.mu.Unlock()
	if !ok {
		c.staleResponses.Inc()
		return
	}
	c.postedLevel.Add(-1)
	var hdr respHeader
	payload, err := unpackFrame(msg.Data, &hdr)
	if err != nil {
		c.enqueue(func(time.Time) { h.completeForward(err) })
		return
	}
	if hdr.Flags&flagBatch != 0 {
		ents, perr := parseBatchResp(payload, int(hdr.Count))
		if perr != nil {
			c.enqueue(func(time.Time) { h.completeForward(perr) })
			return
		}
		h.batchEnts = ents
	}
	h.respStatus = hdr.Status
	h.respMeta = Meta{HasTrace: hdr.Flags&flagTrace != 0, Order: hdr.Order}
	h.respPayload = payload
	// t12: the completion enters the queue; the delay until the origin
	// callback runs at t14 is the origin completion callback time.
	c.enqueue(func(enq time.Time) {
		h.OriginCBTime.SetDuration(time.Since(enq))
		h.completeForward(nil)
	})
}

// CancelPosted cancels every posted handle addressed to target (or all
// posted handles when target is empty). Each canceled forward's
// callback fires with ErrCanceled; late responses are dropped as stale.
func (c *Class) CancelPosted(target string) int {
	c.mu.Lock()
	var victims []*Handle
	for _, h := range c.posted {
		if target == "" || h.target == target {
			victims = append(victims, h)
		}
	}
	c.mu.Unlock()
	for _, h := range victims {
		h.Cancel()
	}
	return len(victims)
}

func (c *Class) unpost(h *Handle) {
	c.mu.Lock()
	if _, ok := c.posted[h.cookie]; ok {
		delete(c.posted, h.cookie)
		c.postedLevel.Add(-1)
	}
	c.mu.Unlock()
}

// contexts attached to asynchronous network operations.
type forwardSendCtx struct{ h *Handle }
type respondCtx struct {
	h  *Handle
	cb func(error)
}
type rdmaReqCtx struct{ h *Handle }
type bulkCtx struct{ cb func(error) }
