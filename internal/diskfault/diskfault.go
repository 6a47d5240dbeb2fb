// Package diskfault is an in-memory wal.FS that injects disk failures for
// the durability suites — the storage-side sibling of internal/chaos.
//
// It models the POSIX crash contract the durability layer is written
// against: file contents become durable only on File.Sync, and namespace
// changes (create, rename, remove, truncate-on-open) become durable only on
// SyncDir of the containing directory. Two complementary power-cut models
// are derived from one recorded run:
//
//   - Torn-write images (Image): every mutating op before the crash point
//     persisted in full — the disk was fast — and the op at the crash point
//     persisted only a prefix. Sweeping every (op, write-prefix) pair is
//     the "kill at every write-prefix" matrix; it exercises torn WAL
//     frames, half-written snapshots, and crashes between rename and log
//     truncation.
//
//   - Strict images (ImageStrict): nothing persisted beyond what fsync
//     contracts guarantee — every unsynced write and every un-SyncDir'd
//     rename/create/remove is lost. This is the adversarial model that
//     catches a missing fsync or a missing directory sync.
//
// Live fault injection (short writes, failed syncs, dead disks) is driven
// by a per-op hook, so directed tests can fail exactly the operation they
// are about.
package diskfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"payless/internal/wal"
)

// OpKind classifies a mutating filesystem operation.
type OpKind int

const (
	// OpCreate is an OpenFile that created or truncated a file.
	OpCreate OpKind = iota
	// OpWrite appends Data to Name.
	OpWrite
	// OpSync fsyncs Name's contents.
	OpSync
	// OpTruncate cuts Name to Size bytes.
	OpTruncate
	// OpRename atomically moves Name to NewName.
	OpRename
	// OpRemove deletes Name.
	OpRemove
	// OpSyncDir fsyncs the namespace of directory Name.
	OpSyncDir
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one recorded mutating operation.
type Op struct {
	Kind    OpKind
	Name    string
	NewName string // rename target
	Data    []byte // write payload
	Size    int64  // truncate size
	// Truncated marks an OpCreate that cut an existing file to zero
	// (O_TRUNC on an existing path).
	Truncated bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("write(%s, %dB)", o.Name, len(o.Data))
	case OpRename:
		return fmt.Sprintf("rename(%s -> %s)", o.Name, o.NewName)
	case OpTruncate:
		return fmt.Sprintf("truncate(%s, %d)", o.Name, o.Size)
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Name)
	}
}

// ErrDiskDead is returned by every operation after Kill.
var ErrDiskDead = errors.New("diskfault: disk dead")

// ErrInjected is the root of hook-injected failures.
var ErrInjected = errors.New("diskfault: injected fault")

// Hook inspects (and may fail) each mutating op before it applies. idx is
// the op's index in the recorded sequence. Returning a non-nil error fails
// the operation; for OpWrite the hook may additionally shorten op.Data to
// model a short write — the prefix still reaches the file, mirroring a
// partial write(2).
type Hook func(idx int, op *Op) error

// inode is one file's contents: cur is what the process sees, durable is
// what survives a power cut (last synced contents).
type inode struct {
	cur     []byte
	durable []byte
	// exists tracks whether the inode is reachable in the durable
	// namespace (set by SyncDir of its directory).
}

// FS is the fault-injecting in-memory filesystem. The zero value is not
// usable; call New.
type FS struct {
	mu sync.Mutex
	// cur and durable are the volatile and synced namespaces: path ->
	// inode. Renames move bindings in cur; SyncDir promotes a directory's
	// bindings (and removals) into durable.
	cur     map[string]*inode
	durable map[string]*inode
	dirs    map[string]bool // directories known to exist (volatile view)

	ops     []Op
	record  bool
	hook    Hook
	dead    bool
	opIndex int
}

// New returns an empty filesystem that records every mutating op.
func New() *FS {
	return &FS{
		cur:     make(map[string]*inode),
		durable: make(map[string]*inode),
		dirs:    make(map[string]bool),
		record:  true,
	}
}

// SetHook installs the fault hook (nil removes it).
func (m *FS) SetHook(h Hook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hook = h
}

// Kill makes every subsequent operation fail with ErrDiskDead — the
// process-side view of a machine losing power mid-run.
func (m *FS) Kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead = true
}

// Revive re-enables operations after Kill (the test harness's reboot).
func (m *FS) Revive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead = false
}

// LosePower reverts the filesystem to its durable state: every file's
// contents roll back to the last Sync, and every namespace change since the
// last SyncDir of its directory is undone. The disk is revived.
func (m *FS) LosePower() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = make(map[string]*inode, len(m.durable))
	for name, ino := range m.durable {
		ino.cur = append([]byte(nil), ino.durable...)
		m.cur[name] = ino
	}
	m.dead = false
}

// Ops returns a copy of the recorded mutating operations.
func (m *FS) Ops() []Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Op, len(m.ops))
	copy(out, m.ops)
	return out
}

// step runs the hook and records the op. Caller holds the lock. The
// returned error (if any) must fail the operation; for OpWrite the caller
// must still apply op.Data (possibly hook-shortened) before failing.
func (m *FS) step(op *Op) error {
	if m.dead {
		return ErrDiskDead
	}
	idx := m.opIndex
	m.opIndex++
	var err error
	if m.hook != nil {
		err = m.hook(idx, op)
	}
	if m.record {
		rec := *op
		rec.Data = append([]byte(nil), op.Data...)
		m.ops = append(m.ops, rec)
	}
	return err
}

// --- wal.FS implementation ---

type memFile struct {
	fs     *FS
	name   string
	ino    *inode
	pos    int64 // read position
	wr     bool
	closed bool
}

// OpenFile implements wal.FS.
func (m *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrDiskDead
	}
	name = filepath.Clean(name)
	ino, exists := m.cur[name]
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	switch {
	case !exists && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !exists:
		op := Op{Kind: OpCreate, Name: name}
		if err := m.step(&op); err != nil {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
		ino = &inode{}
		m.cur[name] = ino
	case flag&os.O_TRUNC != 0:
		op := Op{Kind: OpCreate, Name: name, Truncated: true}
		if err := m.step(&op); err != nil {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
		ino.cur = nil
	}
	return &memFile{fs: m, name: name, ino: ino, wr: writable}, nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.dead {
		return 0, ErrDiskDead
	}
	if f.pos >= int64(len(f.ino.cur)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.cur[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if !f.wr {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	op := Op{Kind: OpWrite, Name: f.name, Data: p}
	err := f.fs.step(&op)
	// Apply whatever the hook let through (a short write's prefix).
	f.ino.cur = append(f.ino.cur, op.Data...)
	if err != nil {
		return len(op.Data), &os.PathError{Op: "write", Path: f.name, Err: err}
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	op := Op{Kind: OpSync, Name: f.name}
	if err := f.fs.step(&op); err != nil {
		return &os.PathError{Op: "sync", Path: f.name, Err: err}
	}
	f.ino.durable = append([]byte(nil), f.ino.cur...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	op := Op{Kind: OpTruncate, Name: f.name, Size: size}
	if err := f.fs.step(&op); err != nil {
		return &os.PathError{Op: "truncate", Path: f.name, Err: err}
	}
	if size < int64(len(f.ino.cur)) {
		f.ino.cur = f.ino.cur[:size]
	}
	return nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// Rename implements wal.FS: atomic in the volatile namespace, durable only
// after SyncDir.
func (m *FS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	ino, ok := m.cur[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	op := Op{Kind: OpRename, Name: oldpath, NewName: newpath}
	if err := m.step(&op); err != nil {
		return &os.PathError{Op: "rename", Path: oldpath, Err: err}
	}
	delete(m.cur, oldpath)
	m.cur[newpath] = ino
	return nil
}

// Remove implements wal.FS.
func (m *FS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.cur[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	op := Op{Kind: OpRemove, Name: name}
	if err := m.step(&op); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	delete(m.cur, name)
	return nil
}

// MkdirAll implements wal.FS. Directory creation is considered durable
// immediately — the suites crash around file ops, not mkdir.
func (m *FS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrDiskDead
	}
	m.dirs[filepath.Clean(path)] = true
	return nil
}

// ReadDir implements wal.FS.
func (m *FS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrDiskDead
	}
	dir = filepath.Clean(dir)
	var names []string
	for name := range m.cur {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements wal.FS.
func (m *FS) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, ErrDiskDead
	}
	ino, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(ino.cur)), nil
}

// SyncDir implements wal.FS: promotes dir's namespace (bindings and
// removals) into the durable view.
func (m *FS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	op := Op{Kind: OpSyncDir, Name: dir}
	if err := m.step(&op); err != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	m.syncDirLocked(dir)
	return nil
}

func (m *FS) syncDirLocked(dir string) {
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, still := m.cur[name]; !still {
				delete(m.durable, name)
			}
		}
	}
	for name, ino := range m.cur {
		if filepath.Dir(name) == dir {
			m.durable[name] = ino
		}
	}
}

// --- crash-image construction ---

// Image builds the torn-write power-cut image at crash point k: ops[0..k-1]
// applied in full, op k (if it is a write and tear >= 0) applied only up to
// tear bytes, everything later never issued. Every applied op is treated as
// durable — the disk kept up — so the image isolates exactly the torn-frame
// and ordering hazards. The returned FS records nothing and injects
// nothing; recovery runs against it directly.
func Image(ops []Op, k int, tear int) *FS {
	img := New()
	img.record = false
	apply := func(op Op, tearTo int) {
		switch op.Kind {
		case OpCreate:
			ino, ok := img.cur[op.Name]
			if !ok {
				img.cur[op.Name] = &inode{}
			} else if op.Truncated {
				ino.cur = nil
			}
		case OpWrite:
			if ino, ok := img.cur[op.Name]; ok {
				data := op.Data
				if tearTo >= 0 && tearTo < len(data) {
					data = data[:tearTo]
				}
				ino.cur = append(ino.cur, data...)
			}
		case OpTruncate:
			if ino, ok := img.cur[op.Name]; ok && op.Size < int64(len(ino.cur)) {
				ino.cur = ino.cur[:op.Size]
			}
		case OpRename:
			if ino, ok := img.cur[op.Name]; ok {
				delete(img.cur, op.Name)
				img.cur[op.NewName] = ino
			}
		case OpRemove:
			delete(img.cur, op.Name)
		case OpSync, OpSyncDir:
			// contents are already "durable" in this model
		}
	}
	if k > len(ops) {
		k = len(ops)
	}
	for i := 0; i < k; i++ {
		apply(ops[i], -1)
	}
	if k < len(ops) && tear >= 0 && ops[k].Kind == OpWrite {
		apply(ops[k], tear)
	}
	img.sealDurable()
	return img
}

// ImageStrict builds the strict power-cut image at crash point k: ops
// [0..k-1] are applied through the sync-tracking semantics and then power
// is lost — only explicitly synced contents and SyncDir'd namespace
// changes survive. This is the image that exposes a missing fsync.
func ImageStrict(ops []Op, k int) *FS {
	img := New()
	img.record = false
	if k > len(ops) {
		k = len(ops)
	}
	for i := 0; i < k; i++ {
		op := ops[i]
		switch op.Kind {
		case OpCreate:
			ino, ok := img.cur[op.Name]
			if !ok {
				img.cur[op.Name] = &inode{}
			} else if op.Truncated {
				ino.cur = nil
			}
		case OpWrite:
			if ino, ok := img.cur[op.Name]; ok {
				ino.cur = append(ino.cur, op.Data...)
			}
		case OpSync:
			if ino, ok := img.cur[op.Name]; ok {
				ino.durable = append([]byte(nil), ino.cur...)
			}
		case OpTruncate:
			if ino, ok := img.cur[op.Name]; ok && op.Size < int64(len(ino.cur)) {
				ino.cur = ino.cur[:op.Size]
			}
		case OpRename:
			if ino, ok := img.cur[op.Name]; ok {
				delete(img.cur, op.Name)
				img.cur[op.NewName] = ino
			}
		case OpRemove:
			delete(img.cur, op.Name)
		case OpSyncDir:
			img.syncDirLocked(op.Name)
		}
	}
	img.LosePower()
	img.sealDurable()
	return img
}

// sealDurable makes the current volatile state the durable baseline, so the
// image behaves like a freshly mounted disk.
func (m *FS) sealDurable() {
	m.durable = make(map[string]*inode, len(m.cur))
	for name, ino := range m.cur {
		ino.durable = append([]byte(nil), ino.cur...)
		m.durable[name] = ino
	}
}

// WritePrefixes returns the tear points worth testing for a write of n
// bytes: nothing persisted is crash point k itself, so the interesting
// tears are a leading byte, the midpoint, and all-but-one — plus the full
// write (equivalent to crashing after the op, covered by k+1, but cheap).
func WritePrefixes(n int) []int {
	switch {
	case n <= 1:
		return nil
	case n <= 4:
		return []int{1, n - 1}
	default:
		return []int{1, n / 2, n - 1}
	}
}

// Dump renders the volatile file listing for test failure messages.
func (m *FS) Dump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s (%dB)\n", name, len(m.cur[name].cur))
	}
	return b.String()
}
