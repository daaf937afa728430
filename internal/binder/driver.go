package binder

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/art"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// LogPath is the procfs file the extended driver writes IPC records to
// (paper §V-B: "It creates a file /proc/jgre_ipc_log in memory to store
// the data").
const LogPath = "/proc/jgre_ipc_log"

// StatsPath is the companion procfs file exposing the log's telemetry
// health, one line rendered from LogStats on every read: "seq N logged N
// dropped_rate N dropped_ring N read_errors N". Like a real kernel ring
// buffer, losses are invisible in the data stream itself but the drop
// counters are readable, which is what lets the defender (and the
// experiments) reason about how much evidence went missing.
const StatsPath = "/proc/jgre_ipc_stats"

// LatencyModel charges virtual time for a transaction as
// Base + PerKB × payload/1024.
type LatencyModel struct {
	Base  time.Duration
	PerKB time.Duration
}

// cost returns the virtual time for a payload of size bytes.
func (m LatencyModel) cost(size int) time.Duration {
	return m.Base + time.Duration(int64(m.PerKB)*int64(size)/1024)
}

// DefaultLatency approximates a Nexus 5X binder round trip: ≈150 µs floor
// plus ≈5 µs per KiB of payload, which puts a 500 KB transaction near the
// stock curve of the paper's Fig. 10.
var DefaultLatency = LatencyModel{Base: 150 * time.Microsecond, PerKB: 5 * time.Microsecond}

// DefaultLogCost is the extra per-transaction cost of the defense's IPC
// recording, calibrated to the paper's measurements (§V-D2): at most
// ≈1.247 ms added per call at the 500 KB end of the sweep, and ≈46.7%
// aggregate overhead across Fig. 10's payload range.
var DefaultLogCost = LatencyModel{Base: 390 * time.Microsecond, PerKB: 1710 * time.Nanosecond}

// IPCRecord is one logged transaction, carrying the fields the paper's
// extended binder driver records: from_pid, to_pid, target handle/node and
// timestamp (§V-B), plus the sender uid and payload size the defender and
// experiments use.
type IPCRecord struct {
	Seq     uint64
	Time    time.Duration
	FromPid kernel.Pid
	FromUid kernel.Uid
	ToPid   kernel.Pid
	Handle  Handle
	Code    TxCode
	Size    int
}

// String formats the record as one procfs log line.
func (r IPCRecord) String() string {
	return fmt.Sprintf("%d %d %d %d %d %d %d %d",
		r.Seq, r.Time.Microseconds(), r.FromPid, r.FromUid, r.ToPid, r.Handle, r.Code, r.Size)
}

// maxLogMicros bounds a parsed timestamp so the microsecond→Duration
// conversion cannot overflow int64 nanoseconds.
const maxLogMicros = int64(1<<63-1) / 1000

// ParseIPCRecord parses a procfs log line produced by IPCRecord.String.
// The parser is strict — exactly eight decimal fields, no trailing
// garbage, timestamps and sizes in range — because the defender treats
// the log as kernel-authored evidence and a line it cannot round-trip is
// a corruption signal, not something to guess at.
func ParseIPCRecord(line string) (IPCRecord, error) {
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return IPCRecord{}, fmt.Errorf("binder: IPC record %q has %d fields, want 8", line, len(fields))
	}
	bad := func(name string, err error) (IPCRecord, error) {
		return IPCRecord{}, fmt.Errorf("binder: IPC record %q: bad %s: %v", line, name, err)
	}
	var r IPCRecord
	seq, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return bad("seq", err)
	}
	r.Seq = seq
	us, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return bad("timestamp", err)
	}
	if us < 0 || us > maxLogMicros {
		return IPCRecord{}, fmt.Errorf("binder: IPC record %q: timestamp %d out of range", line, us)
	}
	r.Time = time.Duration(us) * time.Microsecond
	fromPid, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return bad("from_pid", err)
	}
	r.FromPid = kernel.Pid(fromPid)
	fromUid, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return bad("from_uid", err)
	}
	r.FromUid = kernel.Uid(fromUid)
	toPid, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return bad("to_pid", err)
	}
	r.ToPid = kernel.Pid(toPid)
	handle, err := strconv.ParseUint(fields[5], 10, 32)
	if err != nil {
		return bad("handle", err)
	}
	r.Handle = Handle(handle)
	code, err := strconv.ParseUint(fields[6], 10, 32)
	if err != nil {
		return bad("code", err)
	}
	r.Code = TxCode(code)
	size, err := strconv.ParseInt(fields[7], 10, 64)
	if err != nil {
		return bad("size", err)
	}
	if size < 0 || size > int64(MaxTransactionBytes) {
		return IPCRecord{}, fmt.Errorf("binder: IPC record %q: size %d out of range", line, size)
	}
	r.Size = int(size)
	return r, nil
}

// node is the driver-side identity of a local binder object.
type node struct {
	handle Handle
	local  *LocalBinder
	owner  *kernel.Process
	dead   bool

	// remoteRefs counts live proxies across all processes. While it is
	// positive the owner's runtime holds a JGR on the local binder (the
	// JavaBBinder / Parcel.nativeWriteStrongBinder entry of §III-C2),
	// which is why an attacker flooding a service with fresh Binder
	// tokens burns its own JGR table nearly as fast as the victim's.
	remoteRefs int
	ownerJGR   art.IndirectRef

	// first and last bound the node's chain of active death links, in
	// link order; each link points to the next.
	first, last *DeathLink
}

// appendLink puts dl at the tail of the node's chain.
func (n *node) appendLink(dl *DeathLink) {
	if n.last != nil {
		n.last.next = dl
	} else {
		n.first = dl
	}
	n.last = dl
}

// removeLink takes dl off the node's chain, if it is on it.
func (n *node) removeLink(dl *DeathLink) {
	var prev *DeathLink
	for l := n.first; l != nil; prev, l = l, l.next {
		if l != dl {
			continue
		}
		if prev != nil {
			prev.next = dl.next
		} else {
			n.first = dl.next
		}
		if n.last == dl {
			n.last = prev
		}
		dl.next = nil
		return
	}
}

// procContext is the per-process binder state: the proxy cache (one
// BinderProxy per node, as javaObjectForIBinder guarantees) and the JGR
// bookkeeping that ties proxies to the process runtime. Both caches are
// refIndexes, one indexed by the node's handle and one by the proxy
// JGR's slot, so materializing a proxy and finalizing one hash nothing.
// A context belongs to a pid, not to one process: the driver keeps it,
// emptied, when its process dies and when a recycled slot rewinds, so
// the pid's next process, in this trial's device or the next one's,
// reuses its storage.
type procContext struct {
	driver *Driver
	// proc is the process the context serves, nil after a rewind until
	// the pid's next process opens it again.
	proc    *kernel.Process
	proxies refIndex // by handle
	byJGR   refIndex // by the proxy JGR's slot index
	// links holds the process's active death links, in no particular
	// order: a link leaves by swap-remove when it fires or unlinks.
	links []*DeathLink
	// hook is onJGR as a JGR hook, made once per context and attached
	// to each runtime the context serves.
	hook art.JGRHook
}

// refPage is how many entries one page of a refIndex covers.
const refPage = 128

// refIndex maps a small non-negative integer, a handle or a JGR slot
// index, to a ref. It is a slice paged by index: a page is allocated the
// first time one of its entries holds a ref, so a context whose refs sit
// past a large range, as system_server's JGRs do past its ~1,500 boot
// pins and the attacker's tokens past the service stubs' handles, pays
// for the pages it uses and not for the whole range.
type refIndex struct {
	pages [][]*BinderRef
}

// get returns the ref at i, or nil.
func (x *refIndex) get(i int) *BinderRef {
	if p := i / refPage; p < len(x.pages) && x.pages[p] != nil {
		return x.pages[p][i%refPage]
	}
	return nil
}

// set records br, or with nil no ref, at i.
func (x *refIndex) set(i int, br *BinderRef) {
	p := i / refPage
	if p >= len(x.pages) {
		x.pages = append(x.pages, make([][]*BinderRef, p+1-len(x.pages))...)
	}
	if x.pages[p] == nil {
		x.pages[p] = make([]*BinderRef, refPage)
	}
	x.pages[p][i%refPage] = br
}

// empty drops every ref, keeping the pages.
func (x *refIndex) empty() {
	for _, pg := range x.pages {
		clear(pg)
	}
}

// empty drops every proxy, JGR and death link the context holds,
// keeping the storage.
func (c *procContext) empty() {
	c.proxies.empty()
	c.byJGR.empty()
	clear(c.links)
	c.links = c.links[:0]
}

// dropLink swap-removes dl from c.links in O(1).
func (c *procContext) dropLink(dl *DeathLink) {
	last := len(c.links) - 1
	moved := c.links[last]
	c.links[dl.idx] = moved
	moved.idx = dl.idx
	c.links[last] = nil
	c.links = c.links[:last]
}

// materialize turns a parceled binder into this process's view of it,
// taking a JGR for cross-process binders. A new proxy is one BinderRef.
func (c *procContext) materialize(b IBinder) (*BinderRef, error) {
	var n *node
	switch t := b.(type) {
	case *LocalBinder:
		if t.owner == c.proc {
			return &BinderRef{ctx: c, local: t}, nil
		}
		n = c.driver.ensureNode(t)
	case *proxy:
		n = t.node
	default:
		return nil, fmt.Errorf("binder: cannot materialize %T", b)
	}
	if n.owner == c.proc {
		return &BinderRef{ctx: c, local: n.local}, nil
	}
	if existing := c.proxies.get(int(n.handle)); existing != nil && !existing.closed {
		return existing, nil
	}
	jgr, err := c.proc.VM().AddGlobalRef(&art.Object{ID: c.driver.nextObjectID()})
	if err != nil {
		// The reading process just exhausted its own JGR table; its
		// runtime has aborted and the kernel reaped it.
		return nil, fmt.Errorf("binder: materializing proxy in %s: %w", c.proc.Name(), err)
	}
	ref := &BinderRef{ctx: c, node: n, jgr: jgr}
	c.proxies.set(int(n.handle), ref)
	c.byJGR.set(jgr.Index(), ref)
	c.driver.addRemoteRef(n)
	return ref, nil
}

// onJGR is the context's JGR hook: a removed reference may be a proxy's.
func (c *procContext) onJGR(ev art.JGREvent) {
	if ev.Op == art.OpRemove {
		c.onJGRRemoved(ev.Ref)
	}
}

// onJGRRemoved finalizes proxy bookkeeping when a proxy's global
// reference is deleted (explicit release or GC).
func (c *procContext) onJGRRemoved(ref art.IndirectRef) {
	br := c.byJGR.get(ref.Index())
	if br == nil || br.jgr != ref {
		return
	}
	c.byJGR.set(ref.Index(), nil)
	if h := int(br.node.handle); c.proxies.get(h) == br {
		c.proxies.set(h, nil)
	}
	br.closed = true
	c.driver.dropRemoteRef(br.node)
}

// Driver is the simulated binder kernel driver: the single mediator of
// cross-process transactions.
type Driver struct {
	k     *kernel.Kernel
	cfg   Config
	clock clockIface

	nextObj      art.ObjectID
	nextBinderID uint64
	// nodes holds every node the driver has minted, indexed by handle-1:
	// handles are issued densely from 1, so one slice replaces the three
	// maps (by handle, by binder, by owner) this used to take. The
	// binder→node edge lives on the LocalBinder itself. The one per-owner
	// walk, process death, is bounded by owned: a count of the nodes each
	// pid owns, so a process that owns none skips the walk and one that
	// does stops at its last node instead of scanning the whole slice.
	nodes []*node
	owned map[kernel.Pid]int
	// ctxs holds each pid's binder context; see procContext.
	ctxs map[kernel.Pid]*procContext
	// nodeSlab and lbSlab allocate nodes and LocalBinders: boot (and
	// every device clone) mints one of each per census service, and an
	// attack trial one of each per registration.
	nodeSlab slab[node]
	lbSlab   slab[LocalBinder]

	logging bool
	logSeq  uint64
	// pending buffers records between flushes (bounded when the fault
	// injector models a kernel ring; its eviction count is the log's
	// ring-drop counter); flushed is the procfs file's
	// contents in native struct form, seq-ascending, with byPid holding
	// positions into it so a victim's window is read without scanning
	// every record. AppendLogColumnsSince is the one struct reader; the
	// text /proc format is rendered lazily from flushed only when the
	// file itself is read.
	pending      trace.Ring[IPCRecord]
	flushed      []IPCRecord
	byPid        map[kernel.Pid][]int
	totalTx      uint64
	totalLogged  uint64
	droppedFault uint64
	readErrs     uint64
	procfsOpened bool

	// txBytes is the only push-based instrument on the transact hot path
	// (nil when Config.Metrics is unset): a fixed-bucket payload-size
	// histogram, one branch + one atomic-scan observation per call.
	txBytes *telemetry.Histogram

	// rec is the device's flight recorder (nil = tracing off, the
	// default). The transact path mints a deterministic trace ID per
	// sampled transaction and records the transact/dispatch/handler span
	// chain; the recorder never advances the virtual clock, so a traced
	// device executes the same trajectory as an untraced one.
	rec *trace.Recorder
}

type clockIface interface {
	Now() time.Duration
	Advance(time.Duration)
}

// Config parameterizes a Driver. The zero value is a lossless,
// uninstrumented driver; every transaction costs DefaultLatency, and
// DefaultLogCost more while IPC logging is on.
type Config struct {
	// Faults, when non-nil, perturbs the IPC telemetry path: record
	// drops, a bounded pending-log ring, and timestamp jitter/skew are
	// applied at log-write time; read errors at log-read time. The
	// transaction path itself — dispatch, latency, JGR bookkeeping — is
	// never faulted, so a device with a fault injector executes the same
	// trajectory as one without; only the evidence the defender sees
	// degrades.
	Faults *faults.Injector

	// Metrics, when non-nil, is the registry the driver instruments
	// itself into. Almost everything is pull-based (gauge callbacks over
	// counters the driver already keeps), so the per-transaction cost of
	// instrumentation is one histogram observation.
	Metrics *telemetry.Registry
}

// New creates a driver attached to the kernel; it observes process deaths
// to fire death recipients and reclaim reference bookkeeping.
func New(k *kernel.Kernel, cfg Config) *Driver {
	return NewReusing(nil, k, cfg)
}

// NewReusing is New with allocation recycling: prev, when non-nil, must
// be a retired driver whose device is no longer referenced anywhere.
// Its storage is rewound and reused in place: the node index, every
// block of both slabs, each pid's context (proxy cache, JGR index and
// death links), the log ring and the flushed log with its per-pid index.
// The rewind keeps no pointer into the retired trial: it zeroes every
// slab entry and node index entry the trial used and empties each
// context, which its pid's next process opens again. An attack trial
// mints a node and a LocalBinder per registration and fills
// system_server's context with thousands of proxies and death links; on
// a recycled slot the next trial writes them over warm memory instead of
// fresh heap. Passing a prev that is still in use corrupts both devices.
func NewReusing(prev *Driver, k *kernel.Kernel, cfg Config) *Driver {
	ringCap := 0
	if cfg.Faults != nil {
		ringCap = cfg.Faults.RingCapacity()
	}
	pending := trace.NewRing[IPCRecord](ringCap)
	var d *Driver
	if prev != nil {
		if prev.pending.Cap() == ringCap {
			pending = prev.pending
			pending.Reset()
		}
		d = prev
		clear(d.owned)
		//maporder:free empties each context in place
		for _, c := range d.ctxs {
			c.empty()
			c.proc = nil
		}
		//maporder:free truncates each index in place
		for pid, idx := range d.byPid {
			d.byPid[pid] = idx[:0]
		}
		clear(d.nodes)
		d.nodeSlab.reset()
		d.lbSlab.reset()
		*d = Driver{
			k:        k,
			cfg:      cfg,
			clock:    k.Clock(),
			nodes:    d.nodes[:0],
			owned:    d.owned,
			ctxs:     d.ctxs,
			byPid:    d.byPid,
			nodeSlab: d.nodeSlab,
			lbSlab:   d.lbSlab,
			pending:  pending,
			flushed:  d.flushed[:0],
		}
	} else {
		d = &Driver{
			k:     k,
			cfg:   cfg,
			clock: k.Clock(),
			// Booting (or cloning) a device mints a node per census service;
			// presizing skips the append-growth copies on that path.
			nodes:   make([]*node, 0, 128),
			owned:   make(map[kernel.Pid]int),
			ctxs:    make(map[kernel.Pid]*procContext),
			byPid:   make(map[kernel.Pid][]int),
			pending: pending,
		}
	}
	k.OnKill(func(p *kernel.Process, _ string) { d.onProcessDeath(p) })
	if reg := cfg.Metrics; reg != nil {
		d.txBytes = reg.Histogram("jgre_binder_tx_bytes",
			"Binder transaction payload sizes in bytes.", telemetry.SizeBuckets)
		d.registerMetrics(reg)
	}
	return d
}

// AttachMetrics instruments the driver into reg after construction.
// Device clones defer telemetry registration until the registry is first
// needed, so cloning stays microseconds; everything the gauges read is a
// counter the driver keeps regardless, so late attachment loses nothing
// except txBytes histogram observations made before the attach.
func (d *Driver) AttachMetrics(reg *telemetry.Registry) {
	if d.txBytes != nil || reg == nil {
		return
	}
	d.cfg.Metrics = reg
	d.txBytes = reg.Histogram("jgre_binder_tx_bytes",
		"Binder transaction payload sizes in bytes.", telemetry.SizeBuckets)
	d.registerMetrics(reg)
}

// registerMetrics wires the driver's pull gauges: every series reads a
// counter the driver keeps anyway, so rendering /proc/jgre_metrics is
// the only time these cost anything.
func (d *Driver) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("jgre_binder_transactions_total",
		"Cross-process binder transactions dispatched since boot.",
		func() float64 { return float64(d.totalTx) })
	reg.GaugeFunc("jgre_binder_log_seq_total",
		"IPC log sequence numbers issued (every transaction that should have been recorded).",
		func() float64 { return float64(d.logSeq) })
	reg.GaugeFunc("jgre_binder_log_logged_total",
		"IPC records accepted into the pending log buffer.",
		func() float64 { return float64(d.totalLogged) })
	reg.GaugeFunc("jgre_binder_log_dropped_rate_total",
		"IPC records lost to injected per-record drops.",
		func() float64 { return float64(d.droppedFault) })
	reg.GaugeFunc("jgre_binder_log_ring_evictions_total",
		"IPC records evicted by bounded-ring overflow.",
		func() float64 { return float64(d.pending.Dropped()) })
	reg.GaugeFunc("jgre_binder_log_read_errors_total",
		"Injected IPC log read failures observed by readers.",
		func() float64 { return float64(d.readErrs) })
	reg.GaugeFunc("jgre_binder_log_pending",
		"IPC records buffered awaiting flush (ring occupancy when bounded).",
		func() float64 { return float64(d.pending.Len()) })
	reg.GaugeFunc("jgre_binder_log_flushed",
		"IPC records currently in the flushed procfs log.",
		func() float64 { return float64(len(d.flushed)) })
	reg.GaugeFunc("jgre_binder_ring_occupancy_ratio",
		"Pending-ring fill fraction; NaN-free zero when the buffer is unbounded.",
		func() float64 {
			if c := d.pending.Cap(); c > 0 {
				return float64(d.pending.Len()) / float64(c)
			}
			return 0
		})
}

// SetRecorder installs (or, with nil, removes) the flight recorder the
// transact path emits causal spans into. The device layer owns the
// recorder's lifecycle; NewReusing deliberately clears it so a recycled
// slot re-attaches the rewound recorder explicitly.
func (d *Driver) SetRecorder(r *trace.Recorder) { d.rec = r }

// Recorder returns the driver's flight recorder (nil = tracing off).
func (d *Driver) Recorder() *trace.Recorder { return d.rec }

// Kernel returns the kernel the driver serves.
func (d *Driver) Kernel() *kernel.Kernel { return d.k }

// TotalTransactions returns the number of cross-process transactions
// dispatched since boot.
func (d *Driver) TotalTransactions() uint64 { return d.totalTx }

// nextObjectID mints a device-unique simulated Java object id.
func (d *Driver) nextObjectID() art.ObjectID {
	d.nextObj++
	return d.nextObj
}

// NewLocalBinder creates a binder object owned by proc. handler may be nil
// for pure token binders.
func (d *Driver) NewLocalBinder(proc *kernel.Process, class string, handler Transactor) *LocalBinder {
	if proc == nil || !proc.Alive() {
		panic("binder: NewLocalBinder on a dead or nil process")
	}
	if class == "" {
		class = "android.os.Binder"
	}
	d.nextBinderID++
	lb := d.lbSlab.next()
	*lb = LocalBinder{driver: d, owner: proc, class: class, handler: handler, id: d.nextBinderID}
	return lb
}

// context returns the per-process binder state. A context is made once
// per pid; the first time the pid's process asks after the context was
// made or rewound, the context opens for it and attaches its JGR hook
// to the process's runtime.
func (d *Driver) context(proc *kernel.Process) *procContext {
	c := d.ctxs[proc.Pid()]
	if c == nil {
		c = &procContext{driver: d}
		c.hook = c.onJGR
		d.ctxs[proc.Pid()] = c
	}
	if c.proc == nil {
		c.proc = proc
		proc.VM().AddJGRHook(c.hook)
	}
	return c
}

// Materialize gives proc a reference to b outside any transaction — the
// path used by ServiceManager.getService and by tests. The returned ref is
// retained (the holder keeps the proxy in a long-lived variable).
func (d *Driver) Materialize(proc *kernel.Process, b IBinder) (*BinderRef, error) {
	ref, err := d.context(proc).materialize(b)
	if err != nil {
		return nil, err
	}
	ref.Retain()
	return ref, nil
}

func (d *Driver) ensureNode(lb *LocalBinder) *node {
	if lb.node != nil {
		return lb.node
	}
	n := d.nodeSlab.next()
	*n = node{handle: Handle(len(d.nodes) + 1), local: lb, owner: lb.owner}
	d.nodes = append(d.nodes, n)
	d.owned[lb.owner.Pid()]++
	lb.node = n
	return n
}

// NodeCount returns how many binder nodes (handles) the driver has
// minted since boot. Device cloning uses it to assert the replayed stub
// set reproduced the template's handle space exactly.
func (d *Driver) NodeCount() int { return len(d.nodes) }

// addRemoteRef notes a new proxy on n; the first remote holder pins the
// owner-side JavaBBinder global reference.
func (d *Driver) addRemoteRef(n *node) {
	n.remoteRefs++
	if n.remoteRefs == 1 && !n.dead && n.owner.Alive() && n.ownerJGR == 0 {
		jgr, err := n.owner.VM().AddGlobalRef(&art.Object{ID: d.nextObjectID()})
		if err != nil {
			// The owner exhausted its own table (e.g. an attacker
			// minting tens of thousands of tokens); the kernel has
			// already reaped it via the VM abort hook.
			return
		}
		n.ownerJGR = jgr
	}
}

// dropRemoteRef releases the owner-side pin when the last proxy dies.
func (d *Driver) dropRemoteRef(n *node) {
	n.remoteRefs--
	if n.remoteRefs <= 0 && n.ownerJGR != 0 {
		if n.owner.Alive() {
			_ = n.owner.VM().DeleteGlobalRef(n.ownerJGR)
		}
		n.ownerJGR = 0
	}
}

// transact dispatches a transaction from the holder of a proxy to the
// node's owner.
func (d *Driver) transact(from *kernel.Process, n *node, code TxCode, data, reply *Parcel) error {
	if n.dead || !n.owner.Alive() {
		return ErrDeadObject
	}
	if !from.Alive() {
		return fmt.Errorf("binder: transaction from dead process %s", from.Name())
	}
	if data == nil {
		data = ObtainParcel()
		defer data.Recycle()
	}
	if reply == nil {
		reply = ObtainParcel()
		defer reply.Recycle()
	}
	size := data.SizeBytes()
	if size > MaxTransactionBytes {
		return fmt.Errorf("%w: %d bytes", ErrTransactionTooLarge, size)
	}

	rec := d.rec
	var (
		traced    bool
		txStart   time.Duration
		txTrace   trace.TraceID
		txSpan    trace.SpanID
		prevTrace trace.TraceID
		prevSpan  trace.SpanID
		prevUid   int32
	)
	if rec.Enabled() {
		txStart = d.clock.Now()
	}

	d.clock.Advance(DefaultLatency.cost(size))
	d.totalTx++
	if rec.Enabled() && rec.SampleTx(d.totalTx) {
		// The trace ID is a pure function of (device seed, transaction
		// seq) — the determinism contract behind cross-worker
		// byte-identical exports. Saving the previous context makes
		// nested cross-process transactions link to their parent span
		// and restore it on the way out.
		traced = true
		txTrace = rec.MintTrace(d.totalTx)
		txSpan = rec.NextSpanID()
		prevTrace, prevSpan, prevUid = rec.Context()
	}
	if d.txBytes != nil {
		d.txBytes.Observe(float64(size))
	}
	if d.logging {
		// The log write always charges its virtual-time cost — loss
		// happens downstream of the write — so the simulation trajectory
		// is identical across fault configurations and only the surviving
		// evidence differs.
		d.clock.Advance(DefaultLogCost.cost(size))
		d.logSeq++
		if in := d.cfg.Faults; in != nil && in.DropRecord(d.logSeq) {
			d.droppedFault++
		} else {
			// Fault-order pin: the jittered timestamp is a pure function
			// of (clock, seq), fixed BEFORE the ring decides whether this
			// append evicts, and eviction (the ring's drop count) happens
			// before the append is counted (totalLogged). Eviction therefore can
			// never perturb a surviving record's timestamp, and the
			// counters reconcile as Seq = Logged + DroppedRate,
			// Delivered = Logged - DroppedRing (pinned by
			// TestFaultOrderPinned).
			t := d.clock.Now()
			if in != nil {
				t = in.LogTimestamp(t, d.logSeq)
			}
			// The /proc text codec records microseconds; truncating here
			// keeps the struct records handed to readers bit-identical
			// with what a String/Parse round-trip of the rendered file
			// would produce.
			t -= t % time.Microsecond
			// A bounded ring evicts its oldest unflushed record when
			// full, like a real kernel ring buffer overflow.
			d.pending.Push(IPCRecord{
				Seq: d.logSeq, Time: t,
				FromPid: from.Pid(), FromUid: from.Uid(),
				ToPid: n.owner.Pid(), Handle: n.handle, Code: code, Size: size,
			})
			d.totalLogged++
		}
	}

	// Pin the sender side of any local binders travelling in the parcel:
	// flattening a Binder into the driver is what creates its node.
	for _, it := range data.items {
		if it.kind == kindBinder && it.b != nil {
			if lb, ok := it.b.(*LocalBinder); ok {
				d.ensureNode(lb)
			}
		}
	}

	target := d.context(n.owner)
	data.attachReader(target)
	defer data.finishRead()
	reply.attachReader(d.context(from))

	if n.local.handler == nil {
		return ErrUnknownTransaction
	}
	var (
		handlerSpan trace.SpanID
		tHandler    time.Duration
	)
	if traced {
		// Dispatch span: latency charge, log write, node pinning —
		// everything between the sender's call and the handler running.
		// The handler span becomes the causal context, so JGR mutations
		// and defender engagements made on this transaction's behalf
		// attach beneath it.
		tHandler = d.clock.Now()
		rec.Emit(trace.SpanRecord{
			Trace: txTrace, ID: rec.NextSpanID(), Parent: txSpan, Kind: trace.SpanDispatch,
			Start: txStart, End: tHandler,
			Pid: int32(from.Pid()), Uid: int32(from.Uid()), Code: uint32(code), Val: int64(size),
		})
		handlerSpan = rec.NextSpanID()
		rec.SetContext(txTrace, handlerSpan, int32(from.Uid()))
	}
	// The handler runs inside a fresh JNI local frame: local references
	// taken while unmarshalling are freed wholesale when the transaction
	// returns — which is exactly why local references cannot be
	// exhausted across calls and the attack needs *global* references
	// (paper §II-A).
	vm := n.owner.VM()
	vm.PushLocalFrame()
	defer func() {
		if n.owner.Alive() {
			vm.PopLocalFrame()
		}
	}()
	c := obtainCall()
	c.Code, c.Data, c.Reply = code, data, reply
	c.SenderPid, c.SenderUid = from.Pid(), from.Uid()
	c.Target = n.local
	err := n.local.handler.OnTransact(c)
	recycleCall(c)
	if traced {
		tEnd := d.clock.Now()
		rec.Emit(trace.SpanRecord{
			Trace: txTrace, ID: handlerSpan, Parent: txSpan, Kind: trace.SpanHandler,
			Start: tHandler, End: tEnd,
			Pid: int32(n.owner.Pid()), Uid: int32(from.Uid()), Code: uint32(code),
		})
		rec.Emit(trace.SpanRecord{
			Trace: txTrace, ID: txSpan, Parent: prevSpan, Kind: trace.SpanTransact,
			Start: txStart, End: tEnd,
			Pid: int32(from.Pid()), Uid: int32(from.Uid()), Code: uint32(code), Val: int64(size),
		})
		rec.SetContext(prevTrace, prevSpan, prevUid)
	}
	return err
}

// callPool recycles Call frames across transactions. Handlers must not
// retain the *Call past OnTransact — the same contract Binder.onTransact
// has with its transaction buffers.
var callPool = sync.Pool{New: func() any { return new(Call) }}

func obtainCall() *Call { return callPool.Get().(*Call) }

func recycleCall(c *Call) {
	*c = Call{}
	callPool.Put(c)
}

// linkToDeath fills dl as p's holder's link to the death of p's node,
// notifying r, and puts it on the node's chain and the holder's list. It
// allocates nothing: the caller owns dl. It is the one link function
// behind LinkToDeath and CallbackList.Register.
func (d *Driver) linkToDeath(p *proxy, dl *DeathLink, r deathRecipient) error {
	n := p.node
	if n.dead || !n.owner.Alive() {
		return ErrDeadObject
	}
	holder := p.ctx
	jgr, err := holder.proc.VM().AddGlobalRef(&art.Object{ID: d.nextObjectID()})
	if err != nil {
		return fmt.Errorf("binder: linkToDeath in %s: %w", holder.proc.Name(), err)
	}
	*dl = DeathLink{node: n, holder: holder, recipient: r, jgr: jgr, idx: int32(len(holder.links)), active: true}
	n.appendLink(dl)
	holder.links = append(holder.links, dl)
	return nil
}

// onProcessDeath reclaims binder state for a dead process: its proxies
// release their remote refs in handle order, its death links deactivate,
// its nodes die and fire death recipients in the processes holding
// proxies to them — which is how services learn to drop a dead client's
// listeners and JGRs. The handle order fixes the order of the owners' JGR
// deletes, and so where the holes fall in their tables.
func (d *Driver) onProcessDeath(p *kernel.Process) {
	pid := p.Pid()
	if ctx := d.ctxs[pid]; ctx != nil && ctx.proc != nil {
		for _, pg := range ctx.proxies.pages {
			for _, br := range pg {
				if br != nil && !br.closed {
					br.closed = true
					d.dropRemoteRef(br.node)
				}
			}
		}
		for _, dl := range ctx.links {
			dl.active = false
			dl.node.removeLink(dl)
		}
		ctx.empty()
	}
	// Walk the nodes in handle order, so death recipients fire in handle
	// order, and stop after the pid's last one. A recipient may re-flatten
	// one of the dead pid's binders: the node that mints lands past the
	// range and is not reaped.
	left := d.owned[pid]
	delete(d.owned, pid)
	for _, n := range d.nodes {
		if left == 0 {
			break
		}
		if n.owner.Pid() != pid {
			continue
		}
		left--
		if n.dead {
			continue
		}
		n.dead = true
		n.ownerJGR = 0
		// The chain is detached before any recipient fires and walked in
		// link order: linkToDeath refuses a dead node, and a recipient that
		// unlinks another of its links finds it on no chain, so nothing
		// changes the links walked.
		dl := n.first
		n.first, n.last = nil, nil
		for dl != nil {
			next := dl.next
			dl.next = nil
			if dl.holder.proc.Alive() {
				dl.fire()
			}
			dl = next
		}
		// Unlink the binder→node edge so a later flatten of the same
		// (dead) binder mints a fresh node, matching the map-era behaviour
		// of deleting the registration on death.
		n.local.node = nil
	}
}

// EnableIPCLogging turns on transaction recording, creating the kernel-
// only procfs log file and its telemetry-stats companion. Idempotent.
// Both files render on read: the driver keeps flushed records as structs
// and renders the text /proc format only when the log file itself is
// read, so the defender's columnar reads never pay for the format/parse
// round trip, and the stats file always shows the live counters.
func (d *Driver) EnableIPCLogging() error {
	if !d.procfsOpened {
		fs := d.k.ProcFS()
		if err := fs.CreateProvider(LogPath, kernel.RootUid, false, d.renderLog); err != nil {
			return err
		}
		if err := fs.CreateProvider(StatsPath, kernel.RootUid, false, d.renderStats); err != nil {
			return err
		}
		d.procfsOpened = true
	}
	d.logging = true
	return nil
}

// LogStats is the driver's telemetry-health view of the IPC log.
type LogStats struct {
	// Seq is the number of log sequence numbers issued — every
	// transaction that should have been recorded, lost or not.
	Seq uint64
	// Logged counts records accepted into the pending buffer. Records
	// actually reaching the procfs file equal Logged - DroppedRing.
	Logged uint64
	// DroppedRate counts records lost to injected per-record drops.
	DroppedRate uint64
	// DroppedRing counts records evicted by bounded-ring overflow.
	DroppedRing uint64
	// ReadErrors counts injected log-read failures observed by readers.
	ReadErrors uint64
}

// Dropped is the total record loss across both drop mechanisms.
func (s LogStats) Dropped() uint64 { return s.DroppedRate + s.DroppedRing }

// Delivered is the number of records that reached the procfs file.
func (s LogStats) Delivered() uint64 { return s.Logged - s.DroppedRing }

// LogStats returns the driver's current telemetry counters.
func (d *Driver) LogStats() LogStats {
	return LogStats{
		Seq:         d.logSeq,
		Logged:      d.totalLogged,
		DroppedRate: d.droppedFault,
		DroppedRing: d.pending.Dropped(),
		ReadErrors:  d.readErrs,
	}
}

// renderStats produces the procfs text form of LogStats, the stats
// file's one line, when somebody reads the file.
func (d *Driver) renderStats() []byte {
	s := d.LogStats()
	return fmt.Appendf(nil, "seq %d logged %d dropped_rate %d dropped_ring %d read_errors %d\n",
		s.Seq, s.Logged, s.DroppedRate, s.DroppedRing, s.ReadErrors)
}

// DisableIPCLogging stops recording; buffered records remain flushable.
func (d *Driver) DisableIPCLogging() { d.logging = false }

// PendingLogLen reports how many records are buffered awaiting FlushLog.
func (d *Driver) PendingLogLen() int { return d.pending.Len() }

// LoggingEnabled reports whether transactions are being recorded.
func (d *Driver) LoggingEnabled() bool { return d.logging }

// renderLog produces the procfs text form of the flushed log — one
// IPCRecord.String line per record — on demand, when somebody reads the
// /proc file itself rather than through AppendLogColumnsSince.
func (d *Driver) renderLog() []byte {
	if len(d.flushed) == 0 {
		return nil
	}
	var sb strings.Builder
	sb.Grow(len(d.flushed) * 48)
	for i := range d.flushed {
		sb.WriteString(d.flushed[i].String())
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// FlushLog moves all buffered records into the procfs file's backing
// store and indexes them by victim pid. It returns the number of records
// flushed. The pending buffer is cleared even when the file is gone
// (matching a failed append after the write-side buffer was consumed);
// the records are then lost, as before.
func (d *Driver) FlushLog() (int, error) {
	n := d.pending.Len()
	if n == 0 {
		return 0, nil
	}
	if err := d.k.ProcFS().CheckRead(LogPath, kernel.RootUid); err != nil {
		d.pending.Clear()
		return 0, err
	}
	base := len(d.flushed)
	d.flushed = d.pending.AppendTo(d.flushed)
	d.pending.Clear()
	for i := base; i < len(d.flushed); i++ {
		r := &d.flushed[i]
		d.byPid[r.ToPid] = append(d.byPid[r.ToPid], i)
	}
	return n, nil
}

// TruncateLog clears the procfs log contents (the defender does this after
// consuming a window of records). The index storage is retained so the
// steady-state poll loop allocates nothing.
func (d *Driver) TruncateLog() error {
	if !d.procfsOpened {
		return nil
	}
	if err := d.k.ProcFS().CheckRead(LogPath, kernel.RootUid); err != nil {
		return err
	}
	d.flushed = d.flushed[:0]
	//maporder:free truncates each index in place
	for pid, idx := range d.byPid {
		d.byPid[pid] = idx[:0]
	}
	return nil
}

// logReadable runs the read-side gauntlet: injected read faults
// first (standing in for the transient EIO a real procfs read can hit),
// then the procfs ACL, without materializing any contents.
func (d *Driver) logReadable(uid kernel.Uid) error {
	if in := d.cfg.Faults; in != nil {
		if err := in.ReadError(); err != nil {
			d.readErrs++
			return err
		}
	}
	return d.k.ProcFS().CheckRead(LogPath, uid)
}

// HandleOf returns the driver handle of a local binder, creating its node
// if it has never crossed a process boundary. The device layer uses this
// to index services by handle so the defender can attribute logged IPC
// records to interfaces.
func (d *Driver) HandleOf(lb *LocalBinder) Handle {
	return d.ensureNode(lb).handle
}

// FaultInjector returns the driver's fault injector, nil when the
// telemetry path is unfaulted.
func (d *Driver) FaultInjector() *faults.Injector { return d.cfg.Faults }

// AttributeRetainedRefs is the defender's evidence-free fallback: it
// counts, per app uid, the binder-driver references currently pinning
// JGRs in the victim process — live proxies the victim holds on
// app-owned nodes plus its active death links on them. Unlike the IPC
// log this is driver ground truth that survives any telemetry loss,
// but it only sees what is retained *now*, not the transaction history,
// so it cannot distinguish attack paths or rank by rate — which is why
// it is a fallback and not the primary scorer.
func (d *Driver) AttributeRetainedRefs(victim kernel.Pid) map[kernel.Uid]int {
	ctx, ok := d.ctxs[victim]
	if !ok {
		return nil
	}
	out := make(map[kernel.Uid]int)
	for _, pg := range ctx.proxies.pages {
		for _, br := range pg {
			if br == nil || br.closed {
				continue
			}
			n := br.node
			if n.dead || !n.owner.Alive() || !kernel.IsAppUid(n.owner.Uid()) {
				continue
			}
			out[n.owner.Uid()]++
		}
	}
	for _, dl := range ctx.links {
		if dl.node.dead || !dl.node.owner.Alive() || !kernel.IsAppUid(dl.node.owner.Uid()) {
			continue
		}
		out[dl.node.owner.Uid()]++
	}
	return out
}
