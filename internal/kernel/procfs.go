package kernel

import (
	"errors"
	"fmt"
	"sync"
)

// Access errors returned by ProcFS operations.
var (
	ErrPermissionDenied = errors.New("procfs: permission denied")
	ErrNoSuchFile       = errors.New("procfs: no such file")
	ErrFileExists       = errors.New("procfs: file exists")
)

// procFile is one in-memory procfs node. Its contents are produced by
// the kernel-side owner on every read instead of being stored, the way
// real procfs seq_files render on open, so a read always sees the
// producer's live state.
type procFile struct {
	render func() []byte
	// worldReadable grants read access to app uids. The JGRE defense
	// creates /proc/jgre_ipc_log as system-only so that malicious apps
	// can neither observe nor tamper with the IPC evidence (paper §V-B:
	// "we set the permission of the file so that it can be only accessed
	// by system service but not third-party apps").
	worldReadable bool
	ownerUid      Uid
}

// ProcFS is a minimal in-memory proc filesystem with per-file read
// permissions. Every file is provider-backed: its owner supplies the
// contents, and reads honour the world-readable bit.
type ProcFS struct {
	mu    sync.Mutex
	files map[string]*procFile
}

// NewProcFS returns an empty filesystem.
func NewProcFS() *ProcFS {
	return &ProcFS{files: make(map[string]*procFile)}
}

// Reset empties the filesystem in place, keeping the path map's
// storage. The fleet slot recycle path rewinds a retired clone's procfs
// before the new device's producers register their files.
func (fs *ProcFS) Reset() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clear(fs.files)
}

// CreateProvider registers a file owned by ownerUid whose reads invoke
// render (which must return bytes the caller may keep), so producers
// with a cheaper native representation only pay for text rendering when
// somebody actually opens the file. It fails if the path already exists.
func (fs *ProcFS) CreateProvider(path string, ownerUid Uid, worldReadable bool, render func() []byte) error {
	if render == nil {
		return fmt.Errorf("create %s: nil provider", path)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("create %s: %w", path, ErrFileExists)
	}
	fs.files[path] = &procFile{ownerUid: ownerUid, worldReadable: worldReadable, render: render}
	return nil
}

// Read renders the file's contents, enforcing read permission: the
// owner, root and the system uid always read; other uids only if the
// file is world-readable.
func (fs *ProcFS) Read(path string, uid Uid) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.readable(path, uid)
	if err != nil {
		return nil, err
	}
	return f.render(), nil
}

// CheckRead verifies that uid could read path — existence plus the same
// ACL Read enforces — without rendering the contents. Producers that
// hand out their native representation directly (the binder driver's
// struct-record log reads) use this so the permission model stays the
// procfs's even when no text is rendered.
func (fs *ProcFS) CheckRead(path string, uid Uid) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.readable(path, uid)
	return err
}

// readable returns path's file if uid may read it. The caller holds mu.
func (fs *ProcFS) readable(path string, uid Uid) (*procFile, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", path, ErrNoSuchFile)
	}
	if !f.worldReadable && uid != f.ownerUid && uid != RootUid && uid != SystemUid {
		return nil, fmt.Errorf("read %s by uid %d: %w", path, uid, ErrPermissionDenied)
	}
	return f, nil
}

// Remove deletes a file. Only the owner or root may remove it.
func (fs *ProcFS) Remove(path string, uid Uid) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("remove %s: %w", path, ErrNoSuchFile)
	}
	if uid != f.ownerUid && uid != RootUid {
		return fmt.Errorf("remove %s by uid %d: %w", path, uid, ErrPermissionDenied)
	}
	delete(fs.files, path)
	return nil
}
