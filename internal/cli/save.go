package cli

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with what write produces, crash-safely: the
// bytes go to a temporary file in the same directory, which is fsynced and
// then renamed over path. A process that has the old file open or mmap'd
// keeps reading the old, intact inode — writing in place would truncate a
// mapping under it, a fatal fault — and a failed write leaves path as it
// was.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil { // CreateTemp makes the file 0600
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
