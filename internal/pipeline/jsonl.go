package pipeline

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

// JSONL streams one JSON line per trial to a file — the bounded-
// memory raw export of a campaign. Lines are written in trial-index
// order; the encoding is the caller's (a marshal function over the
// trial's params and result), so one implementation serves any
// campaign type.
//
// Its checkpoint state is the byte offset and line count after the
// last exported trial. Restore truncates the file back to that
// offset, discarding any trailing lines a killed run had written past
// its last checkpoint; because the pipeline re-runs exactly the
// trials after the checkpoint and trials are pure functions of their
// index, the resumed file ends up byte-identical to an uninterrupted
// run's.
type JSONL[P, R any] struct {
	path   string
	encode func(i int, p P, r R) (any, error)

	file    *os.File
	w       *bufio.Writer
	offset  int64
	lines   int64
	resumed bool
	gauges  *telemetry.Gauges // campaign telemetry (nil when off)
}

// NewJSONL builds a JSONL exporter writing to path. encode maps one
// trial to the value marshalled as its line; returning the result
// struct itself is typical.
func NewJSONL[P, R any](path string, encode func(i int, p P, r R) (any, error)) *JSONL[P, R] {
	return &JSONL[P, R]{path: path, encode: encode}
}

// Name implements Exporter.
func (j *JSONL[P, R]) Name() string { return "jsonl:" + filepath.Base(j.path) }

// jsonlState is the serialized checkpoint state.
type jsonlState struct {
	Offset int64 `json:"offset"`
	Lines  int64 `json:"lines"`
}

// Restore implements Exporter: record the checkpointed offset; Begin
// truncates to it.
func (j *JSONL[P, R]) Restore(state json.RawMessage) error {
	var s jsonlState
	if err := json.Unmarshal(state, &s); err != nil {
		return fmt.Errorf("jsonl state: %w", err)
	}
	if s.Offset < 0 || s.Lines < 0 {
		return fmt.Errorf("jsonl state: negative offset %d or line count %d", s.Offset, s.Lines)
	}
	j.offset, j.lines, j.resumed = s.Offset, s.Lines, true
	return nil
}

// Begin implements Exporter: open (or reopen) the file. On resume the
// file is truncated to the checkpointed offset; on a fresh campaign
// it is truncated to empty. A resume refuses a file shorter than the
// checkpointed offset: truncating would pad it with NUL bytes where
// the lost lines were.
func (j *JSONL[P, R]) Begin(m Meta) error {
	if j.resumed && j.offset > 0 {
		st, err := os.Stat(j.path)
		if err != nil {
			return fmt.Errorf("jsonl: resume at offset %d: %w", j.offset, err)
		}
		if st.Size() < j.offset {
			return fmt.Errorf("jsonl: %s holds %d bytes, fewer than the checkpointed offset %d; refusing to resume",
				j.path, st.Size(), j.offset)
		}
	}
	if dir := filepath.Dir(j.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(j.offset); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(j.offset, 0); err != nil {
		f.Close()
		return err
	}
	j.file = f
	// bufio's default 4 KiB buffer: a 64 KiB one measurably slowed
	// campaign set-up (fresh pages on every Begin) and saved nothing
	// per line. The size only batches syscalls, never changes bytes.
	j.w = bufio.NewWriter(f)
	j.gauges = m.Gauges
	j.gauges.Set(telemetry.GExportBytes, j.offset)
	return nil
}

// Export implements Exporter: marshal the trial's value through
// encoding/json and append it as one line.
func (j *JSONL[P, R]) Export(i int, p P, r R) error {
	v, err := j.encode(i, p, r)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return err
	}
	j.offset += int64(len(data)) + 1
	j.lines++
	j.gauges.Set(telemetry.GExportBytes, j.offset)
	return nil
}

// Checkpoint implements Exporter. The buffered writer is flushed
// first so the recorded offset is bytes in the file, not buffered
// ones.
func (j *JSONL[P, R]) Checkpoint() (json.RawMessage, error) {
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(jsonlState{Offset: j.offset, Lines: j.lines})
}

// Close implements Exporter. The file is closed even when the final
// flush fails; both errors are returned.
func (j *JSONL[P, R]) Close(bool) error {
	if j.file == nil {
		return nil
	}
	err := errors.Join(j.w.Flush(), j.file.Close())
	j.file, j.w = nil, nil
	return err
}

// Lines reports how many lines the exporter has written across the
// campaign so far (including lines restored from a checkpoint).
func (j *JSONL[P, R]) Lines() int64 { return j.lines }
