// Package fsx is the only sanctioned way to produce a durable file
// (DESIGN.md §8). WriteAtomic implements the classic crash-safe sequence —
// write a temp file in the destination directory, fsync it, close it,
// rename it over the destination, fsync the parent directory — so a crash
// or error at any point leaves the previous contents of the destination
// byte-identical on disk.
//
// The durable analyzer in qb5000vet enforces the contract from the outside:
// any path value annotated `// qb5000:durable` that reaches a direct
// os.Create / os.WriteFile / os.Rename is reported, and inside this package
// a CFG must-analysis proves every os.Rename is preceded by an fsync of the
// written file on all paths.
//
// Every step carries a named failpoint (FPCreate … FPRename), registered
// here as the central registry TestRegistryMatchesSiteConstants checks. Each
// site fires immediately BEFORE its operation, so an injected fault at any
// registered seam aborts the sequence with the destination untouched — the
// invariant the crash-matrix test asserts per site.
package fsx

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"qb5000/internal/failpoint"
)

// Failpoint site names for the atomic-write sequence, one per seam, in
// execution order. This var block is the central failpoint registry.
const (
	FPCreate = "fsx.create"
	FPWrite  = "fsx.write"
	FPSync   = "fsx.sync"
	FPClose  = "fsx.close"
	FPRename = "fsx.rename"
)

var (
	_ = failpoint.Register(FPCreate)
	_ = failpoint.Register(FPWrite)
	_ = failpoint.Register(FPSync)
	_ = failpoint.Register(FPClose)
	_ = failpoint.Register(FPRename)
)

// WriteAtomic durably replaces the file at path with whatever write
// produces: write-temp → fsync → close → rename → fsync-parent-dir. On any
// error — including an error returned by write — the destination is left
// exactly as it was and the temp file is removed.
//
// qb5000:durable path
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	if ferr := failpoint.Inject(FPCreate); ferr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, ferr)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if committed {
			return
		}
		// Best-effort cleanup on the error path; secondary failures are
		// joined into the returned error rather than dropped.
		if cerr := tmp.Close(); cerr != nil && !errors.Is(cerr, os.ErrClosed) {
			err = errors.Join(err, cerr)
		}
		if rerr := os.Remove(tmpName); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			err = errors.Join(err, rerr)
		}
	}()
	if ferr := failpoint.Inject(FPWrite); ferr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, ferr)
	}
	if werr := write(tmp); werr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, werr)
	}
	if ferr := failpoint.Inject(FPSync); ferr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, ferr)
	}
	if serr := tmp.Sync(); serr != nil {
		return fmt.Errorf("fsx: write %s: sync: %w", path, serr)
	}
	if ferr := failpoint.Inject(FPClose); ferr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, ferr)
	}
	if cerr := tmp.Close(); cerr != nil {
		return fmt.Errorf("fsx: write %s: close: %w", path, cerr)
	}
	if ferr := failpoint.Inject(FPRename); ferr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, ferr)
	}
	if rerr := os.Rename(tmpName, path); rerr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, rerr)
	}
	committed = true
	if derr := syncDir(dir); derr != nil {
		return fmt.Errorf("fsx: write %s: %w", path, derr)
	}
	return nil
}

// syncDir flushes the directory entry so the rename itself is durable, not
// just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("sync dir: %w", serr)
	}
	return cerr
}
