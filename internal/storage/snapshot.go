package storage

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wolves/internal/engine"
	"wolves/internal/storage/vfs"
)

// snapshotView is one attached view inside a snapshot document.
type snapshotView struct {
	ID   string          `json:"id"`
	View json.RawMessage `json:"view"`
}

// docBytes carries a canonical run document inside the JSON snapshot.
// JSON-era documents embed verbatim — snapshots of pre-PR-9 stores stay
// byte-compatible and legacy snapshots (plain embedded objects) decode
// unchanged — while binary canonical documents, which are not valid
// JSON, ride as a base64 JSON string. The two are disjoint on the JSON
// kind ('{' vs '"'), so decoding needs no version field.
type docBytes []byte

// MarshalJSON quotes the base64 encoding directly: the standard
// alphabet needs no JSON escaping, so the bytes equal json.Marshal of
// the encoded string without its two intermediate copies.
func (d docBytes) MarshalJSON() ([]byte, error) {
	if len(d) > 0 && d[0] == '{' {
		return d, nil
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(d))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, d)
	return append(out, '"'), nil
}

func (d *docBytes) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return err
		}
		*d = raw
		return nil
	}
	*d = append([]byte(nil), b...)
	return nil
}

// snapshotRun is one ingested run inside a snapshot document, carrying
// the run store's canonical bytes.
type snapshotRun struct {
	ID  string   `json:"id"`
	Doc docBytes `json:"doc"`
}

// snapshotDoc is the on-disk JSON shape of one workflow's snapshot: the
// canonical workflow, view and run documents plus the LSN the snapshot
// covers — every WAL record for this workflow with lsn <= LSN is
// subsumed and skipped on replay.
type snapshotDoc struct {
	LSN      uint64          `json:"lsn"`
	ID       string          `json:"id"`
	Version  uint64          `json:"version"`
	Workflow json.RawMessage `json:"workflow"`
	Views    []snapshotView  `json:"views,omitempty"`
	Runs     []snapshotRun   `json:"runs,omitempty"`
}

// snapName derives the snapshot file name for a workflow ID. IDs come
// from URL paths and may hold anything; hashing keeps the file name safe
// and fixed-length, and the document itself carries the real ID.
func snapName(id string) string {
	sum := sha256.Sum256([]byte(id))
	return fmt.Sprintf("snap-%x.json", sum[:8])
}

// encodeSnapshot turns a live state into its snapshot document. wfRaw
// may carry a pre-marshaled workflow document (the register path has one
// in hand); pass nil to marshal here. runIDs/runDocs carry the run
// store's documents for this workflow (snapshots subsume run records the
// same way they subsume mutation records).
func encodeSnapshot(st *engine.LiveState, lsn uint64, wfRaw json.RawMessage, runIDs []string, runDocs [][]byte) (*snapshotDoc, error) {
	var err error
	if wfRaw == nil {
		if wfRaw, err = st.Workflow.MarshalJSON(); err != nil {
			return nil, fmt.Errorf("storage: snapshot %q: encode workflow: %w", st.ID, err)
		}
	}
	doc := &snapshotDoc{LSN: lsn, ID: st.ID, Version: st.Version, Workflow: wfRaw}
	for _, av := range st.Views {
		raw, err := av.View.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot %q: encode view %q: %w", st.ID, av.ID, err)
		}
		doc.Views = append(doc.Views, snapshotView{ID: av.ID, View: raw})
	}
	for i, rid := range runIDs {
		doc.Runs = append(doc.Runs, snapshotRun{ID: rid, Doc: runDocs[i]})
	}
	return doc, nil
}

// writeSnapshotFile persists doc atomically and returns its encoded
// size: write to a temp file, sync it (unless FsyncNone), rename over
// the final name, sync the directory. A crash at any point leaves either
// the old snapshot or the new one, never a torn hybrid. Every failure
// path removes the temp file (best-effort) so a retry starts from a
// fresh inode instead of appending to torn bytes.
func writeSnapshotFile(fsys vfs.FS, dir string, doc *snapshotDoc, mode FsyncMode) (int64, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, fmt.Errorf("storage: snapshot %q: %w", doc.ID, err)
	}
	final := filepath.Join(dir, snapName(doc.ID))
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if mode != FsyncNone {
		if err := f.Sync(); err != nil {
			f.Close()
			fsys.Remove(tmp)
			return 0, err
		}
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if mode != FsyncNone {
		return int64(len(data)), syncDir(fsys, dir)
	}
	return int64(len(data)), nil
}

// loadedSnapshot pairs a decoded snapshot with its file path and
// encoded size (recovery seeds the size-proportional snapshot trigger
// with it, so a restart does not collapse the trigger to its floor and
// rewrite a huge snapshot after a trickle of post-boot records).
type loadedSnapshot struct {
	doc  snapshotDoc
	path string
	size int64
}

// loadSnapshots reads every snapshot document in dir, in ascending LSN
// order (so when the registry's capacity forces evictions during
// recovery, the most recently snapshotted workflows survive). Corrupt
// documents are set aside, not fatal: the WAL may still hold the
// workflow's history, and if it does not, dropping a half-written
// snapshot from an unsynced crash is the correct reading of the disk.
func loadSnapshots(fsys vfs.FS, dir string) (snaps []loadedSnapshot, corrupt []string, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := vfs.ReadFile(fsys, path)
		if err != nil {
			return nil, nil, err
		}
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil || doc.ID == "" {
			corrupt = append(corrupt, path)
			continue
		}
		snaps = append(snaps, loadedSnapshot{doc: doc, path: path, size: int64(len(data))})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].doc.LSN < snaps[j].doc.LSN })
	return snaps, corrupt, nil
}
