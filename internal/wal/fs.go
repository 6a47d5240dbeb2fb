package wal

import (
	"io"
	"os"
)

// FS is the filesystem surface the durability layer needs. Production code
// uses OS; the crash suites substitute internal/diskfault's in-memory
// implementation to inject short writes, failed syncs and power cuts at
// every write prefix.
//
// The durability layer's correctness depends on exactly the POSIX crash
// contract this interface models: file contents are durable only after
// File.Sync, and namespace operations (create, rename, remove) are durable
// only after SyncDir on the containing directory.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flags the
	// layer uses: O_RDONLY, O_WRONLY|O_CREATE (with O_APPEND or O_TRUNC).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory (and parents) if missing.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir returns the base names of the entries in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Stat returns the size of name, or an error satisfying
	// os.IsNotExist when it does not exist.
	Stat(name string) (int64, error)
	// SyncDir flushes the directory entry metadata of dir — the fsync
	// that makes a rename/create/remove in dir durable.
	SyncDir(dir string) error
}

// File is the open-file surface the layer needs. Writes are sequential
// (append or fresh-truncate); Truncate discards a torn tail.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OS is the production FS backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems (and some platforms) refuse fsync on a directory
	// handle; that only loses the rename-durability guarantee the platform
	// never offered, so it is not an error the caller can act on.
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	if pe, ok := err.(*os.PathError); ok {
		err = pe.Err
	}
	return err == os.ErrInvalid || err.Error() == "invalid argument" ||
		err.Error() == "operation not supported"
}

// ReadAll reads the whole of name through fs. A missing file returns
// (nil, nil): absent and empty are the same durable state.
func ReadAll(fs FS, name string) ([]byte, error) {
	f, err := fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
