// Package binder simulates Android's Binder IPC framework: parcels with
// strong-binder marshalling, local binder objects and remote proxies, a
// kernel driver that dispatches and (optionally) logs every transaction,
// link-to-death notification, and the ServiceManager registry.
//
// The package wires the exact JGR-creation path the paper identifies
// (§III-B2): reading a strong binder out of a parcel in the receiving
// process (Parcel.nativeReadStrongBinder → ibinderForJavaObject) takes a
// JNI global reference in that process's runtime. Whether the reference
// survives depends on whether the service retains the proxy — which is
// precisely what separates vulnerable interfaces from innocent ones.
package binder

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/art"
)

// Maximum transaction size. The binder kernel driver caps transaction
// buffers at about 1 MB per process; we enforce the limit per transaction.
const MaxTransactionBytes = 1024 * 1024

// ErrParcelExhausted is returned when reading past the end of a parcel.
var ErrParcelExhausted = errors.New("binder: parcel exhausted")

// ErrTransactionTooLarge is returned when a parcel exceeds the binder
// transaction buffer.
var ErrTransactionTooLarge = errors.New("binder: transaction too large")

// TypeMismatchError is returned when a parcel read does not match the
// written type at the cursor.
type TypeMismatchError struct {
	Want, Got string
}

func (e *TypeMismatchError) Error() string {
	return fmt.Sprintf("binder: parcel type mismatch: reading %s, next item is %s", e.Want, e.Got)
}

// itemKind tags a parcel slot.
type itemKind int

const (
	kindInt32 itemKind = iota + 1
	kindInt64
	kindString
	kindBytes
	kindBinder
)

func (k itemKind) String() string {
	switch k {
	case kindInt32:
		return "int32"
	case kindInt64:
		return "int64"
	case kindString:
		return "string"
	case kindBytes:
		return "bytes"
	case kindBinder:
		return "strong binder"
	default:
		return fmt.Sprintf("itemKind(%d)", int(k))
	}
}

type parcelItem struct {
	kind itemKind
	i64  int64
	str  string
	raw  []byte
	b    IBinder
}

// sizeBytes approximates the flattened size of the item, mirroring
// Parcel's wire format closely enough for the Fig. 10 payload sweep:
// 4-byte ints, 8-byte longs, length-prefixed UTF-16 strings, length-
// prefixed byte arrays, and a flat_binder_object per binder.
func (it parcelItem) sizeBytes() int {
	switch it.kind {
	case kindInt32:
		return 4
	case kindInt64:
		return 8
	case kindString:
		return 4 + 2*len(it.str)
	case kindBytes:
		return 4 + len(it.raw)
	case kindBinder:
		return 24 // sizeof(flat_binder_object)
	default:
		return 0
	}
}

// Parcel is an ordered container of typed values exchanged in a binder
// transaction. The zero value is an empty parcel ready for writing.
//
// Reads consume items in write order; reading a binder out of a received
// parcel is the JGR-relevant operation and therefore requires the parcel
// to have been attached to a reading process by the driver.
type Parcel struct {
	items []parcelItem
	pos   int

	// reader is the process context reads execute in; set by the driver
	// when the parcel crosses a process boundary.
	reader *procContext
	// readRefs collects the BinderRefs materialized while the current
	// transaction reads this parcel, so the framework can mark the
	// unretained ones collectable when the transaction ends.
	readRefs []*BinderRef
}

// NewParcel returns an empty parcel.
func NewParcel() *Parcel { return &Parcel{} }

// parcelPool recycles parcels across transactions, mirroring
// Parcel.obtain()/recycle(): the framework's hot paths churn through two
// parcels per call, and pooling keeps that churn off the allocator.
var parcelPool = sync.Pool{New: func() any { return new(Parcel) }}

// ObtainParcel returns an empty parcel from the pool. Callers that can
// bound the parcel's lifetime (it must not escape the transaction) should
// pair it with Recycle; letting it leak to the GC instead is safe, just
// slower.
func ObtainParcel() *Parcel {
	return parcelPool.Get().(*Parcel)
}

// Recycle resets the parcel and returns it to the pool. The caller must
// not use the parcel afterwards.
func (p *Parcel) Recycle() {
	p.Reset()
	parcelPool.Put(p)
}

// Reset clears the parcel for reuse. Item slots are zeroed so a pooled
// parcel does not keep binders or payload bytes reachable, but both the
// item and readRef storage is kept, so steady-state reuse allocates
// nothing.
func (p *Parcel) Reset() {
	clear(p.items)
	p.items = p.items[:0]
	p.pos = 0
	p.reader = nil
	clear(p.readRefs)
	p.readRefs = p.readRefs[:0]
}

// Len returns the number of items in the parcel.
func (p *Parcel) Len() int { return len(p.items) }

// SizeBytes returns the approximate flattened transaction size.
func (p *Parcel) SizeBytes() int {
	total := 0
	for _, it := range p.items {
		total += it.sizeBytes()
	}
	return total
}

// WriteInt32 appends a 32-bit integer.
func (p *Parcel) WriteInt32(v int32) {
	p.items = append(p.items, parcelItem{kind: kindInt32, i64: int64(v)})
}

// WriteInt64 appends a 64-bit integer.
func (p *Parcel) WriteInt64(v int64) {
	p.items = append(p.items, parcelItem{kind: kindInt64, i64: v})
}

// WriteString appends a string.
func (p *Parcel) WriteString(s string) {
	p.items = append(p.items, parcelItem{kind: kindString, str: s})
}

// WriteBytes appends a byte array. The slice is copied: parcels own their
// payload (a transaction buffer is copied into the receiver in the real
// driver too).
func (p *Parcel) WriteBytes(b []byte) {
	p.items = append(p.items, parcelItem{kind: kindBytes, raw: append([]byte(nil), b...)})
}

// WriteStrongBinder appends a binder object (local stub or proxy).
// Writing a nil binder is legal and reads back as nil, matching
// Parcel.writeStrongBinder(null).
func (p *Parcel) WriteStrongBinder(b IBinder) {
	p.items = append(p.items, parcelItem{kind: kindBinder, b: b})
}

func (p *Parcel) next(want itemKind) (parcelItem, error) {
	if p.pos >= len(p.items) {
		return parcelItem{}, ErrParcelExhausted
	}
	it := p.items[p.pos]
	if it.kind != want {
		return parcelItem{}, &TypeMismatchError{Want: want.String(), Got: it.kind.String()}
	}
	p.pos++
	return it, nil
}

// NextIsInt32 reports whether the next unread item is an int32, without
// consuming it. Handlers use it for optional trailing arguments (e.g. the
// execution-path selector of multi-path interfaces).
func (p *Parcel) NextIsInt32() bool {
	return p.pos < len(p.items) && p.items[p.pos].kind == kindInt32
}

// ReadInt32 consumes a 32-bit integer.
func (p *Parcel) ReadInt32() (int32, error) {
	it, err := p.next(kindInt32)
	if err != nil {
		return 0, err
	}
	return int32(it.i64), nil
}

// ReadInt64 consumes a 64-bit integer.
func (p *Parcel) ReadInt64() (int64, error) {
	it, err := p.next(kindInt64)
	if err != nil {
		return 0, err
	}
	return it.i64, nil
}

// ReadString consumes a string.
func (p *Parcel) ReadString() (string, error) {
	it, err := p.next(kindString)
	if err != nil {
		return "", err
	}
	return it.str, nil
}

// ReadBytes consumes a byte array.
func (p *Parcel) ReadBytes() ([]byte, error) {
	it, err := p.next(kindBytes)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), it.raw...), nil
}

// ReadStrongBinder consumes a binder object and materializes it in the
// reading process. For a binder owned by another process this mints (or
// revives) a proxy and — crucially — takes a JNI global reference in the
// reading process's runtime, exactly the
// Parcel.nativeReadStrongBinder → IndirectReferenceTable::Add path of
// paper §III-B. The returned BinderRef starts unretained: unless the
// callee calls Retain before the transaction ends, the framework marks
// the reference collectable and the next GC frees it (sift rules 2–3).
//
// Reading a nil binder returns (nil, nil). Reading a binder owned by the
// reading process itself returns the original object with no new JGR.
func (p *Parcel) ReadStrongBinder() (*BinderRef, error) {
	it, err := p.next(kindBinder)
	if err != nil {
		return nil, err
	}
	if it.b == nil {
		return nil, nil
	}
	if p.reader == nil {
		return nil, errors.New("binder: ReadStrongBinder on a parcel not attached to a process (not received via a transaction)")
	}
	ref, err := p.reader.materialize(it.b)
	if err != nil {
		return nil, err
	}
	// JNI hands the unmarshalled object to the handler through a local
	// reference in the current frame (freed when the transaction pops
	// its frame); retention beyond the call requires the global ref.
	if _, lerr := p.reader.proc.VM().AddLocalRef(&art.Object{ID: localObjID(ref)}); lerr != nil {
		return nil, lerr
	}
	if ref.jgr != 0 {
		p.readRefs = append(p.readRefs, ref)
	}
	return ref, nil
}

// localObjID derives a stable object id for the transient local ref.
func localObjID(ref *BinderRef) art.ObjectID {
	return art.ObjectID(uint64(ref.jgr) | 1<<50)
}

// attachReader binds the parcel to the process that will read it.
func (p *Parcel) attachReader(ctx *procContext) {
	p.reader = ctx
	p.pos = 0
}

// finishRead marks every binder read from this parcel but never retained
// as collectable, simulating the Java-side proxies becoming unreachable
// once onTransact returns. The slice's storage is kept for reuse; the
// elements are dropped so finished refs stay collectable.
func (p *Parcel) finishRead() {
	for i, r := range p.readRefs {
		r.endOfTransaction()
		p.readRefs[i] = nil
	}
	p.readRefs = p.readRefs[:0]
}
