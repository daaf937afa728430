package services

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
)

// ErrRetryExhausted reports that a transaction kept hitting dead
// handles past its retry deadline. It deliberately does NOT wrap
// binder.ErrDeadObject: workload actors treat a dead object as a
// permanent stop, while an exhausted retry is a recoverable outage the
// restart-aware actors handle themselves.
var ErrRetryExhausted = errors.New("services: transaction retry deadline exceeded")

// RetryPolicy makes a client survive service restarts: a transaction
// failing with binder.ErrDeadObject is retried — re-resolving the
// service through the ServiceManager each attempt — with exponential
// backoff until the per-call Deadline of virtual time is spent. The
// zero value disables retry entirely (the pre-chaos behaviour).
type RetryPolicy struct {
	// Deadline bounds the total virtual time one call may spend
	// retrying. 0 disables retry.
	Deadline time.Duration
	// Backoff is the first retry delay; it doubles per attempt.
	// 0 with a non-zero Deadline defaults to 10ms.
	Backoff time.Duration
}

// Client is an app-side handle on a catalogued system service: the app's
// retained proxy plus the compiled-in transaction-code table. It is the
// *raw* binder interface — what a malicious app uses to bypass helper
// classes (Code-Snippet 2 builds exactly this against "wifi").
type Client struct {
	serviceName string
	proc        *kernel.Process
	driver      *binder.Driver
	sm          *binder.ServiceManager
	ref         *binder.BinderRef
	tab         *Dispatch
	pkg         string
	retry       RetryPolicy
	retries     int
}

// NewClient looks the service up in the ServiceManager on behalf of proc.
// pkg is the caller's package name, passed as the first argument of every
// call (and spoofable — nothing verifies it, which is the enqueueToast
// hole).
func NewClient(sm *binder.ServiceManager, d *binder.Driver, proc *kernel.Process, pkg, serviceName string) (*Client, error) {
	ref, err := sm.GetService(serviceName, proc)
	if err != nil {
		return nil, err
	}
	return &Client{
		serviceName: serviceName,
		proc:        proc,
		driver:      d,
		sm:          sm,
		ref:         ref,
		tab:         dispatchFor(serviceName),
		pkg:         pkg,
	}, nil
}

// SetRetry installs (or clears, with the zero value) the client's
// dead-handle retry policy.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// Retries returns how many dead-handle retries the client has burned
// across all calls.
func (c *Client) Retries() int { return c.retries }

// transact sends one transaction through the retained proxy, applying
// the retry policy on dead handles. The binder driver checks liveness
// before consuming parcels, so a failed attempt leaves data/reply intact
// for verbatim re-submission. Each retry advances the virtual clock by
// the current backoff and re-resolves the service, picking up the
// supervisor's replacement stub once it re-registers.
func (c *Client) transact(code binder.TxCode, data, reply *binder.Parcel) error {
	err := c.ref.Binder().Transact(code, data, reply)
	if err == nil || !errors.Is(err, binder.ErrDeadObject) || c.retry.Deadline <= 0 {
		return err
	}
	clock := c.driver.Kernel().Clock()
	deadline := clock.Now() + c.retry.Deadline
	backoff := c.retry.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		if clock.Now()+backoff > deadline {
			return fmt.Errorf("%w: %s after %d retries", ErrRetryExhausted, c.serviceName, c.retries)
		}
		clock.Advance(backoff)
		backoff *= 2
		c.retries++
		ref, rerr := c.sm.GetService(c.serviceName, c.proc)
		if rerr != nil {
			// Service not re-registered yet: burn the backoff and try
			// again within the deadline.
			continue
		}
		c.ref.Release()
		c.ref = ref
		if err = c.ref.Binder().Transact(code, data, reply); err == nil || !errors.Is(err, binder.ErrDeadObject) {
			return err
		}
	}
}

// ServiceName returns the target service's registry name.
func (c *Client) ServiceName() string { return c.serviceName }

// Proc returns the calling process.
func (c *Client) Proc() *kernel.Process { return c.proc }

// code resolves a method name.
func (c *Client) code(method string) (binder.TxCode, error) {
	code, ok := c.tab.codes[method]
	if !ok {
		return 0, fmt.Errorf("services: %s has no method %q", c.serviceName, method)
	}
	return code, nil
}

// NewToken mints a fresh Binder token owned by the calling process — the
// `new Binder()` of the attack loop.
func (c *Client) NewToken() *binder.LocalBinder {
	return c.driver.NewLocalBinder(c.proc, "android.os.Binder", nil)
}

// Register invokes a retaining method with a fresh token, using the
// client's own package name.
func (c *Client) Register(method string) error {
	return c.RegisterAs(method, c.pkg, c.NewToken())
}

// RegisterToken invokes a retaining method with the given token.
func (c *Client) RegisterToken(method string, token binder.IBinder) error {
	return c.RegisterAs(method, c.pkg, token)
}

// RegisterAs invokes a retaining method claiming the given package name —
// the spoofing primitive behind the enqueueToast bypass ("android").
func (c *Client) RegisterAs(method, pkg string, token binder.IBinder) error {
	code, err := c.code(method)
	if err != nil {
		return err
	}
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	data.WriteString(pkg)
	data.WriteStrongBinder(token)
	return c.transact(code, data, reply)
}

// RegisterPath invokes a retaining method selecting an execution-path
// variant (paper §VI's multi-path attack primitive). The variant rides as
// an int32 between the package name and the callback binder and also
// changes the transaction size, which is what lets the defender classify
// calls by code path.
func (c *Client) RegisterPath(method, pkg string, variant int32, token binder.IBinder) error {
	code, err := c.code(method)
	if err != nil {
		return err
	}
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	data.WriteString(pkg)
	data.WriteInt32(variant)
	// Path-dependent extra payload: different branches marshal different
	// argument structures.
	data.WriteBytes(make([]byte, int(variant)*64))
	data.WriteStrongBinder(token)
	return c.transact(code, data, reply)
}

// Unregister releases the caller's oldest registration on method.
func (c *Client) Unregister(method string) error {
	code, err := c.code(UnregisterPrefix + method)
	if err != nil {
		return err
	}
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	data.WriteString(c.pkg)
	return c.transact(code, data, reply)
}

// Call invokes a non-retaining method. Methods that read a binder
// argument (local-use, read-only) receive a fresh token.
func (c *Client) Call(method string) error {
	code, err := c.code(method)
	if err != nil {
		return err
	}
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	data.WriteString(c.pkg)
	data.WriteStrongBinder(c.NewToken())
	return c.transact(code, data, reply)
}

// Close releases the client's proxy on the service.
func (c *Client) Close() { c.ref.Release() }

// Helper is a service helper class (Table II): the developer-friendly
// wrapper that encapsulates the raw interface AND carries Android's only
// guard for nine vulnerable interfaces — a client-side quota. Because the
// quota executes in the app's own process, it protects against
// *accidental* exhaustion only; a malicious app simply skips the helper
// (paper §IV-C1).
type Helper struct {
	client *Client
	iface  catalog.Interface
	active int
}

// NewHelper wraps client with the helper guard of the catalogued
// interface. It panics if the interface is not helper-guarded: that would
// be a misuse of the API, not a runtime condition.
func NewHelper(client *Client, iface catalog.Interface) *Helper {
	if iface.Protection != catalog.HelperGuard {
		panic(fmt.Sprintf("services: %s is not helper-guarded", iface.FullName()))
	}
	if iface.Service != client.ServiceName() {
		panic(fmt.Sprintf("services: helper for %s wrapping client of %s", iface.FullName(), client.ServiceName()))
	}
	return &Helper{client: client, iface: iface}
}

// Acquire performs the guarded registration. Mirroring Code-Snippet 1
// (WifiManager.acquire), the helper first issues the IPC and only then
// checks its local count, releasing and failing once MAX_ACTIVE_LOCKS is
// exceeded.
func (h *Helper) Acquire() error {
	if err := h.client.Register(h.iface.Method); err != nil {
		return err
	}
	h.active++
	if h.active > h.iface.GuardLimit {
		// Release what we just acquired and refuse, exactly as
		// WifiManager throws after mService.releaseWifiLock(mBinder).
		if err := h.client.Unregister(h.iface.Method); err != nil {
			return err
		}
		h.active--
		return fmt.Errorf("services: exceeded maximum number of %s locks (%d)",
			h.iface.Service, h.iface.GuardLimit)
	}
	return nil
}

// Release undoes one registration.
func (h *Helper) Release() error {
	if h.active == 0 {
		return ErrNoEntry
	}
	if err := h.client.Unregister(h.iface.Method); err != nil {
		return err
	}
	h.active--
	return nil
}

// Active returns the helper-tracked registration count.
func (h *Helper) Active() int { return h.active }
