// Package durablefix exercises the durable analyzer: a path annotated
// qb5000:durable must be written through the fsx atomic protocol, never by
// direct os calls, and must not be laundered through an unannotated helper
// that performs filesystem writes.
package durablefix

import (
	"io"
	"os"

	"qb5000/internal/fsx"
)

// cfg shows the struct-field annotation form.
type cfg struct {
	// qb5000:durable
	SnapshotPath string
	ScratchPath  string
}

// badSave is the pre-fsx save path from cmd/qb5000: create-truncate-write
// in place — a crash mid-write destroys the previous snapshot too.
func badSave(c cfg, body []byte) error {
	f, err := os.Create(c.SnapshotPath) // want "os.Create on a qb5000:durable path"
	if err != nil {
		return err
	}
	if _, werr := f.Write(body); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

func badHelpers(c cfg, body []byte) {
	_ = os.WriteFile(c.SnapshotPath, body, 0o644) // want "os.WriteFile on a qb5000:durable path"
	_ = os.Rename(c.ScratchPath, c.SnapshotPath)  // want "os.Rename on a qb5000:durable path"
	_ = os.Remove(c.SnapshotPath)                 // want "os.Remove on a qb5000:durable path"
	_ = os.Truncate(c.SnapshotPath, 4096)         // want "os.Truncate on a qb5000:durable path"
}

func openFlags(c cfg, flags int) {
	w, _ := os.OpenFile(c.SnapshotPath, os.O_WRONLY|os.O_CREATE, 0o644) // want "os.OpenFile on a qb5000:durable path with write flags"
	_ = w
	u, _ := os.OpenFile(c.SnapshotPath, flags, 0o644) // want "os.OpenFile on a qb5000:durable path with write flags"
	_ = u
	r, _ := os.OpenFile(c.SnapshotPath, os.O_RDONLY, 0) // reading a durable file is not a hazard
	_ = r
}

func localAnnotated(dir string) {
	// qb5000:durable
	target := dir + "/catalog.snap"
	_ = os.WriteFile(target, nil, 0o644) // want "os.WriteFile on a qb5000:durable path"
	scratch := dir + "/scratch.tmp"
	_ = os.WriteFile(scratch, nil, 0o644) // unannotated scratch may be torn
}

// saveVia carries the contract forward: the annotated parameter transfers
// the obligation to fsx.
//
// qb5000:durable path
func saveVia(path string, body []byte) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// rawDump performs filesystem writes with no durable contract on its
// parameter — handing it a durable path launders the write.
func rawDump(path string, body []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(body)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func callers(c cfg, body []byte) {
	_ = saveVia(c.SnapshotPath, body) // the annotated callee keeps the contract
	_ = rawDump(c.SnapshotPath, body) // want "performs filesystem writes without a qb5000:durable parameter contract"
	_ = rawDump(c.ScratchPath, body)  // a non-durable scratch path may go anywhere
}

// calledInPlace hands the durable path to a literal called where it is
// written: the literal's parameter carries the contract into its body.
func calledInPlace(c cfg, body []byte) {
	_ = func(p string) error {
		return os.WriteFile(p, body, 0o644) // want "os.WriteFile on a qb5000:durable path"
	}(c.SnapshotPath)
	_ = func(p string) error {
		return os.WriteFile(p, body, 0o644) // a non-durable scratch path may go anywhere
	}(c.ScratchPath)
}
