//go:build !unix

package atomicfile

// SyncDir does nothing on platforms without a directory fsync: there a
// rename is as durable as the platform makes it.
func SyncDir(string) error { return nil }
