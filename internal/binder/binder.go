package binder

import (
	"errors"

	"repro/internal/art"
	"repro/internal/kernel"
)

// Handle identifies a binder node inside the driver, as seen by remote
// processes.
type Handle uint32

// TxCode identifies a transaction (an IPC method) on an interface.
type TxCode uint32

// Errors surfaced by binder operations.
var (
	// ErrDeadObject mirrors DeadObjectException: the binder's owning
	// process is gone.
	ErrDeadObject = errors.New("binder: dead object")
	// ErrUnknownTransaction is returned for a transaction on a binder
	// with no transactor (e.g. a plain token Binder).
	ErrUnknownTransaction = errors.New("binder: unknown transaction")
	// ErrLocalBinder is returned by LinkToDeath on a binder the caller
	// itself owns: local binders cannot die independently.
	ErrLocalBinder = errors.New("binder: cannot link to death of a local binder")
)

// Call carries one inbound transaction to a Transactor. Binder.getCallingUid
// and getCallingPid correspond to SenderUid and SenderPid; permission checks
// in services key off them.
type Call struct {
	Code  TxCode
	Data  *Parcel
	Reply *Parcel

	SenderPid kernel.Pid
	SenderUid kernel.Uid
	// Target is the local binder being invoked.
	Target *LocalBinder
}

// Transactor handles inbound transactions on a local binder — the
// equivalent of Binder.onTransact in a service stub.
type Transactor interface {
	OnTransact(call *Call) error
}

// TransactorFunc adapts a function to the Transactor interface.
type TransactorFunc func(call *Call) error

// OnTransact implements Transactor.
func (f TransactorFunc) OnTransact(call *Call) error { return f(call) }

// IBinder is the common interface of local binder objects and remote
// proxies, mirroring android.os.IBinder.
type IBinder interface {
	// Transact performs a synchronous transaction. reply may be nil when
	// the caller ignores results.
	Transact(code TxCode, data, reply *Parcel) error
	// Owner returns the process hosting the binder object.
	Owner() *kernel.Process
	// IsAlive reports whether the hosting process is still running.
	IsAlive() bool
	// LinkToDeath registers fn to run when the hosting process dies.
	// Linking takes a JNI global reference in the linking process (the
	// Binder.linkToDeath → JavaDeathRecipient JGR entry of paper
	// §III-B2); the reference is released when the link fires or is
	// unlinked.
	LinkToDeath(fn func()) (*DeathLink, error)
}

// LocalBinder is a binder object living in its creating process — the
// analogue of android.os.Binder. A LocalBinder with a nil Transactor is a
// pure token (attackers mint these: `new Binder()` in Code-Snippet 2).
type LocalBinder struct {
	driver  *Driver
	owner   *kernel.Process
	class   string
	handler Transactor
	id      uint64
	// node is the driver node minted the first time this binder crosses a
	// process boundary; nil until then, and reset to nil when the owner
	// dies. A LocalBinder belongs to exactly one driver, so caching the
	// edge here replaces the driver's binder→node map.
	node *node
}

// Owner returns the hosting process.
func (b *LocalBinder) Owner() *kernel.Process { return b.owner }

// Class returns the simulated Java class of the binder object.
func (b *LocalBinder) Class() string { return b.class }

// IsAlive reports whether the hosting process is running.
func (b *LocalBinder) IsAlive() bool { return b.owner.Alive() }

// Transact on a local binder dispatches directly to the transactor, as
// Binder.transact does for in-process calls. No driver crossing occurs
// and no IPC is logged.
func (b *LocalBinder) Transact(code TxCode, data, reply *Parcel) error {
	if b.handler == nil {
		return ErrUnknownTransaction
	}
	if data == nil {
		data = ObtainParcel()
		defer data.Recycle()
	}
	if reply == nil {
		reply = ObtainParcel()
		defer reply.Recycle()
	}
	ctx := b.driver.context(b.owner)
	data.attachReader(ctx)
	defer data.finishRead()
	reply.attachReader(ctx)
	vm := b.owner.VM()
	vm.PushLocalFrame()
	defer func() {
		if b.owner.Alive() {
			vm.PopLocalFrame()
		}
	}()
	c := obtainCall()
	c.Code, c.Data, c.Reply = code, data, reply
	c.SenderPid, c.SenderUid = b.owner.Pid(), b.owner.Uid()
	c.Target = b
	err := b.handler.OnTransact(c)
	recycleCall(c)
	return err
}

// LinkToDeath on a local binder is rejected: the owner cannot outlive
// itself.
func (b *LocalBinder) LinkToDeath(func()) (*DeathLink, error) {
	return nil, ErrLocalBinder
}

// proxy is a remote reference to a binder node, the analogue of
// android.os.BinderProxy: a view of the BinderRef that holds it, so one
// allocation is both. One proxy exists per (holding process, node) while
// its ref is open. The proxy reads its holder and its driver through the
// ref's context.
type proxy BinderRef

// Owner returns the process hosting the underlying binder object.
func (p *proxy) Owner() *kernel.Process { return p.node.owner }

// IsAlive reports whether the node's owner still runs.
func (p *proxy) IsAlive() bool { return !p.node.dead && p.node.owner.Alive() }

// Transact routes the transaction through the driver.
func (p *proxy) Transact(code TxCode, data, reply *Parcel) error {
	return p.ctx.driver.transact(p.ctx.proc, p.node, code, data, reply)
}

// LinkToDeath registers a death recipient for the remote process.
func (p *proxy) LinkToDeath(fn func()) (*DeathLink, error) {
	dl := new(DeathLink)
	if err := p.ctx.driver.linkToDeath(p, dl, deathFunc(fn)); err != nil {
		return nil, err
	}
	return dl, nil
}

// deathRecipient is what a death link notifies when the node's owner
// dies: a CallbackList entry, or the function LinkToDeath was given.
type deathRecipient interface {
	binderDied()
}

// deathFunc is a function as a death recipient, the form LinkToDeath
// links.
type deathFunc func()

func (f deathFunc) binderDied() { f() }

// DeathLink is a registered death recipient; Unlink cancels it. While it
// is active it sits on its node's chain, in link order, and in its
// holder's list of active links. A CallbackList entry holds its link
// inline, so a registration allocates no link of its own.
type DeathLink struct {
	node      *node
	holder    *procContext
	recipient deathRecipient
	// next is the following link on the node's chain.
	next *DeathLink
	jgr  art.IndirectRef
	// idx is the link's position in holder.links while it is active. An
	// int32 shares a word with active, which keeps a link at 56 bytes and
	// a service's callback entry at 112.
	idx    int32
	active bool
}

// Unlink cancels the death notification and releases its JGR.
func (dl *DeathLink) Unlink() {
	if !dl.active {
		return
	}
	dl.active = false
	dl.holder.dropLink(dl)
	dl.node.removeLink(dl)
	if dl.jgr != 0 && dl.holder.proc.Alive() {
		// Ignore stale errors: the VM may have aborted concurrently.
		_ = dl.holder.proc.VM().DeleteGlobalRef(dl.jgr)
	}
	dl.jgr = 0
}

// fire runs the recipient once and releases its JGR.
func (dl *DeathLink) fire() {
	if !dl.active {
		return
	}
	dl.active = false
	dl.holder.dropLink(dl)
	if dl.jgr != 0 && dl.holder.proc.Alive() {
		_ = dl.holder.proc.VM().DeleteGlobalRef(dl.jgr)
		dl.jgr = 0
	}
	dl.recipient.binderDied()
}

// CallbackList holds the binders a service retains for its callers, in
// registration order: the analogue of Android's RemoteCallbackList.
// Registering links the binder's death to the entry's removal, so a
// caller that dies takes its entries with it. Entries sit on an intrusive
// doubly linked list, so removing one, by death or by unregister, is
// O(1) and leaves the others in registration order. Each entry carries a
// cookie of the service's choosing (RemoteCallbackList.register's
// cookie), which is how a service records who registered it. The zero
// value is an empty list; a nil *CallbackList reads as empty.
type CallbackList[C any] struct {
	head, tail *Callback[C]
	n          int
}

// Callback is one registration in a CallbackList. It holds its death
// link inline and is that link's recipient.
type Callback[C any] struct {
	// Cookie is the data the service registered the entry with.
	Cookie     C
	ref        *BinderRef
	link       DeathLink
	list       *CallbackList[C] // nil once removed
	prev, next *Callback[C]
}

// Register retains ref and appends it with cookie, linking the death of
// ref's binder to the entry's removal. It allocates the entry and
// nothing else: the driver fills the entry's own death link. The entry
// is appended even when linking fails (a binder the service owns itself
// cannot die apart from it); the link error is returned for the service
// to judge, and one that refuses the registration removes the entry
// again.
func (l *CallbackList[C]) Register(ref *BinderRef, cookie C) (*Callback[C], error) {
	ref.Retain()
	cb := &Callback[C]{Cookie: cookie, ref: ref, list: l}
	err := ErrLocalBinder
	if ref.local == nil {
		err = ref.ctx.driver.linkToDeath((*proxy)(ref), &cb.link, cb)
	}
	cb.prev = l.tail
	if l.tail != nil {
		l.tail.next = cb
	} else {
		l.head = cb
	}
	l.tail = cb
	l.n++
	return cb, err
}

// Len returns the number of registrations.
func (l *CallbackList[C]) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Front returns the oldest registration, or nil.
func (l *CallbackList[C]) Front() *Callback[C] {
	if l == nil {
		return nil
	}
	return l.head
}

// Next returns the registration after cb, or nil at the end or once cb
// has been removed.
func (cb *Callback[C]) Next() *Callback[C] { return cb.next }

// Ref returns the retained binder.
func (cb *Callback[C]) Ref() *BinderRef { return cb.ref }

// Remove takes cb off its list, cancels its death link and releases its
// binder. A service calls it to unregister, and the entry's death link
// calls it when the binder dies; removing an entry twice is a no-op.
func (cb *Callback[C]) Remove() {
	l := cb.list
	if l == nil {
		return
	}
	if cb.prev != nil {
		cb.prev.next = cb.next
	} else {
		l.head = cb.next
	}
	if cb.next != nil {
		cb.next.prev = cb.prev
	} else {
		l.tail = cb.prev
	}
	cb.list, cb.prev, cb.next = nil, nil, nil
	l.n--
	cb.link.Unlink()
	cb.ref.Release()
}

// binderDied makes the entry its own link's recipient.
func (cb *Callback[C]) binderDied() { cb.Remove() }

// BinderRef is a binder object materialized in a reading process by
// ReadStrongBinder (or handed out by the ServiceManager). It couples the
// IBinder with the JNI global reference that keeps the proxy alive in the
// reader's runtime. A ref over another process's binder is itself the
// proxy (see proxy), so materializing one allocates 40 bytes, one object
// of the 48-byte size class.
//
// A ref obtained inside a transaction starts unretained: when the
// transaction ends the framework marks it collectable and the next GC
// frees the JGR — the innocent patterns of paper §III-C3. A service that
// stores the binder must call Retain, which is exactly the operation that
// makes an IPC interface a JGRE risk.
type BinderRef struct {
	ctx *procContext
	// local is the binder when the reading process owns it, and node the
	// remote node when it does not; exactly one is set.
	local    *LocalBinder
	node     *node
	jgr      art.IndirectRef
	retained bool
	closed   bool
}

// Binder returns the underlying IBinder: the local binder itself, or the
// ref as a proxy.
func (r *BinderRef) Binder() IBinder {
	if r.local != nil {
		return r.local
	}
	return (*proxy)(r)
}

// HasJGR reports whether this ref holds a JNI global reference (false for
// same-process binders).
func (r *BinderRef) HasJGR() bool { return r.jgr != 0 }

// Retained reports whether the ref has been pinned beyond its transaction.
func (r *BinderRef) Retained() bool { return r.retained }

// Retain pins the reference beyond the current transaction, preventing GC
// from reclaiming its JGR. Retaining an already-closed ref panics: it
// indicates a use-after-release bug in a service.
func (r *BinderRef) Retain() {
	if r.closed {
		panic("binder: Retain on released BinderRef")
	}
	r.retained = true
}

// Release explicitly drops the reference, deleting its JGR immediately.
// Releasing twice is a no-op.
func (r *BinderRef) Release() {
	if r.closed {
		return
	}
	r.closed = true
	r.retained = false
	if r.jgr == 0 {
		return
	}
	if r.ctx.proc.Alive() {
		// The ctx JGR hook observes the delete and finalizes the proxy
		// (node remote-ref bookkeeping).
		_ = r.ctx.proc.VM().DeleteGlobalRef(r.jgr)
	}
}

// endOfTransaction marks an unretained ref collectable: the Java-side
// proxy became unreachable when onTransact returned, so the next GC cycle
// reclaims the global reference.
func (r *BinderRef) endOfTransaction() {
	if r.retained || r.closed || r.jgr == 0 {
		return
	}
	r.closed = true
	if r.ctx.proc.Alive() {
		_ = r.ctx.proc.VM().MarkCollectable(r.jgr)
	}
	// Drop from the proxy cache now: a later read of the same node
	// materializes a fresh proxy, as javaObjectForIBinder would after
	// the BinderProxy is finalized.
	r.ctx.proxies.set(int(r.node.handle), nil)
}
