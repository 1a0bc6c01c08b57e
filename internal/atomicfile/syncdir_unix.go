//go:build unix

package atomicfile

import "os"

// SyncDir fsyncs a directory, so that the names created or renamed in it
// survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
