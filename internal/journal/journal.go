// Package journal implements the broker's durability layer: an
// append-only, CRC-framed, fsync-batched write-ahead log of typed
// records plus a periodically rotated snapshot. A restarting broker
// recovers by loading the snapshot and replaying the log tail; a torn
// final record (the signature of a crash mid-write) is detected by the
// framing checksums and discarded.
//
// The journal imposes one correctness contract on its users, relied on
// by rotation and recovery alike: records must be absolute and
// idempotent. Replaying a record whose effect a snapshot already
// reflects must be a no-op, because a mutation may legitimately be
// captured by both the snapshot and a record that survives truncation.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"e2eqos/internal/wire"
)

// Policy selects when appended records reach stable storage.
type Policy int

const (
	// FsyncBatch (the default) buffers appends in memory and has a
	// background syncer write+fsync the accumulated batch every
	// BatchInterval. Appends return in microseconds; a power failure
	// loses at most the last batch window of records.
	FsyncBatch Policy = iota
	// FsyncAlways writes and fsyncs every record before Append
	// returns: nothing acknowledged is ever lost, at the price of one
	// fsync per mutation.
	FsyncAlways
	// FsyncNever writes through to the OS on every append but never
	// fsyncs: records survive a process crash but not a power failure.
	// Meant for tests and benchmark baselines.
	FsyncNever
)

func (p Policy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a config string; empty selects FsyncBatch.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncBatch, fmt.Errorf("journal: unknown fsync policy %q (want batch, always or never)", s)
	}
}

// DefBatchInterval is the default group-commit window for FsyncBatch.
const DefBatchInterval = 2 * time.Millisecond

// rotateEvery is how many appended records make NeedRotate report
// true.
const rotateEvery = 4096

// Options configures a journal.
type Options struct {
	// Fsync is the durability policy (default FsyncBatch).
	Fsync Policy
	// BatchInterval is the FsyncBatch group-commit window
	// (default DefBatchInterval).
	BatchInterval time.Duration

	// TailBytes, when positive, caps the in-memory tail of appended
	// frames that Retain turns on for replication streaming: TailSince
	// serves follower catch-up from the tail without touching the file,
	// Trim drops what every follower holds, and a reader that fell past
	// the cap takes a snapshot instead. Zero (the default) disables the
	// tail; unreplicated brokers pay nothing.
	TailBytes int

	// OnAppend, OnFsync and OnError, when set, observe each append's
	// latency, each fsync batch, and each write-path error. They are
	// called outside the journal's locks and must not call back in.
	OnAppend func(time.Duration)
	OnFsync  func()
	OnError  func(error)
}

const (
	// snapshotFile keeps the name existing state directories use; what it
	// holds is whatever bytes the owner's state function returns.
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
	tmpSuffix    = ".tmp"
)

// Recovered is the state read back from a journal directory: the last
// rotated snapshot (nil if none) and every intact record appended
// after it, in order. Torn reports that the log ends in a frame that
// is cut short or fails its length or checksum test, discarded with
// whatever follows it — the expected aftermath of a crash mid-append,
// tolerated silently by Open.
type Recovered struct {
	Snapshot []byte
	Records  []Record
	Torn     bool

	validBytes int64
}

// Recover reads a journal directory without opening it for writing;
// Open uses it internally and tests use it to audit a live directory
// (after Sync) without disturbing the writer. A frame that was written
// whole but is not a record this build reads — a log from before the
// binary codec, or from a later version — fails the recovery with
// wire.ErrUnsupportedFormat: dropping it as if torn would silently
// discard it and every record behind it.
func Recover(dir string) (*Recovered, error) {
	rec := &Recovered{}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		rec.Snapshot = snap
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("journal: reading snapshot: %w", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		if os.IsNotExist(err) {
			return rec, nil
		}
		return nil, fmt.Errorf("journal: reading wal: %w", err)
	}
	for off := 0; off < len(wal); {
		r, n, err := DecodeRecord(wal[off:])
		if errors.Is(err, wire.ErrUnsupportedFormat) {
			return nil, fmt.Errorf("journal: wal record %d at offset %d: %w", len(rec.Records), off, err)
		}
		if err != nil {
			// A frame that is cut short or fails its length or checksum
			// test ends the replay: everything beyond it is the torn tail
			// of a crashed write (or garbage shadowed by it) and cannot be
			// trusted.
			rec.Torn = true
			break
		}
		rec.Records = append(rec.Records, r)
		off += n
		rec.validBytes = int64(off)
	}
	return rec, nil
}

// Journal is an append-only record log bound to one directory. It is
// safe for concurrent use. A nil *Journal is inert: Append, Sync,
// Rotate and Close no-op, so unjournaled brokers thread the same code.
type Journal struct {
	dir  string
	opts Options

	// mu guards the buffer, counters and sticky error, and serialises
	// direct writes (FsyncAlways / FsyncNever). Rotate holds it across
	// the snapshot build; Append never blocks on disk in batch mode.
	mu      sync.Mutex
	buf     []byte
	spare   []byte // drained batch buffer, recycled so appends stay allocation-free
	scratch []byte // frame build space for the direct-write policies
	records int    // appended since the last rotation
	err     error
	closed  bool

	// fileMu serialises file writes, fsyncs and truncation between the
	// batch syncer and rotation. Never acquired while holding mu by the
	// syncer; Rotate takes mu then fileMu.
	fileMu sync.Mutex
	f      *os.File

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	appends int64
	fsyncs  int64

	// Streaming state (stream.go), guarded by mu: seq numbers every
	// appended record within this incarnation, tail keeps the frames
	// appended while retain is on and not yet trimmed, for TailSince, and
	// changes is the lazily-created broadcast channel closed (and
	// replaced) on every append. chunk is what the tail copies frames
	// into (keepLocked).
	seq      int64
	retain   bool
	tail     []StreamRecord
	tailSize int
	chunk    []byte
	changes  chan struct{}
}

// Stats is a point-in-time view of the journal's activity.
type Stats struct {
	// Appends / Fsyncs count since Open.
	Appends, Fsyncs int64
	// TailBytes is the size of the frames the stream tail holds: those
	// some follower has not acknowledged yet (see Retain and Trim).
	TailBytes int
}

// Open recovers the directory's persisted state, truncates any torn
// tail, and opens the journal for appending. The caller replays
// Recovered before appending new records. When Recover fails, Open
// leaves every file in the directory as it found it.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Drop the torn tail so fresh appends extend the valid prefix.
	if err := f.Truncate(rec.validBytes); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(rec.validBytes, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if opts.BatchInterval <= 0 {
		opts.BatchInterval = DefBatchInterval
	}
	j := &Journal{
		dir:     dir,
		opts:    opts,
		f:       f,
		records: len(rec.Records),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.Fsync == FsyncBatch {
		go j.syncLoop()
	} else {
		close(j.done)
	}
	return j, rec, nil
}

// Append encodes and logs one record under the configured fsync
// policy. The returned error is also sticky (see Err): callers
// on the hot path may ignore it and rely on the OnError hook.
//
// The payload is framed directly into the journal's own buffers (the
// batch buffer or the direct-write scratch), so a steady-state append
// allocates nothing.
func (j *Journal) Append(op string, data BinaryRecord) error {
	if j == nil {
		return nil
	}
	t0 := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: append after close")
	}
	var err error
	var frame []byte
	if j.opts.Fsync == FsyncBatch {
		start := len(j.buf)
		j.buf, err = AppendRecord(j.buf, op, data)
		frame = j.buf[start:]
	} else {
		j.scratch, err = AppendRecord(j.scratch[:0], op, data)
		frame = j.scratch
	}
	if err != nil {
		j.mu.Unlock()
		j.fail(err)
		return err
	}
	return j.logLocked(frame, t0)
}

// logLocked logs one frame under the configured fsync policy: in batch
// mode the frame already ends j.buf and the syncer is woken, otherwise
// it is written, and under FsyncAlways synced, here. It counts and
// numbers the append, releases j.mu, which the caller holds, and
// reports the append begun at t0 to OnAppend, or its write error to
// OnError: Append and a follower's AppendFrame are observed alike.
func (j *Journal) logLocked(frame []byte, t0 time.Time) error {
	var err error
	synced := false
	if j.opts.Fsync == FsyncBatch {
		select {
		case j.kick <- struct{}{}:
		default:
		}
	} else if _, err = j.f.Write(frame); err == nil && j.opts.Fsync == FsyncAlways {
		if err = j.f.Sync(); err == nil {
			j.fsyncs++
			synced = true
		}
	}
	if err != nil {
		j.err = err
	}
	j.records++
	j.appends++
	j.noteAppendLocked(frame)
	j.mu.Unlock()
	if synced {
		if fn := j.opts.OnFsync; fn != nil {
			fn()
		}
	}
	if err != nil {
		if fn := j.opts.OnError; fn != nil {
			fn(err)
		}
	} else if fn := j.opts.OnAppend; fn != nil {
		fn(time.Since(t0))
	}
	return err
}

// syncLoop is the FsyncBatch group-commit goroutine: it sleeps one
// batch interval after the first append of a batch, then flushes the
// whole accumulated buffer with a single write+fsync. One timer serves
// every window: it is only reset once its last expiry was received, so
// no stale expiry can cut a window short under either timer semantics.
func (j *Journal) syncLoop() {
	defer close(j.done)
	var timer *time.Timer
	for {
		select {
		case <-j.stop:
			return
		case <-j.kick:
		}
		if timer == nil {
			timer = time.NewTimer(j.opts.BatchInterval)
		} else {
			timer.Reset(j.opts.BatchInterval)
		}
		select {
		case <-j.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		j.flush()
	}
}

// flush writes and fsyncs the pending batch. Appenders are only
// blocked for the buffer swap, not the disk I/O: the drained buffer is
// swapped against the spare from the previous flush, so a steady
// batch workload ping-pongs two buffers and never reallocates.
func (j *Journal) flush() {
	j.mu.Lock()
	b := j.buf
	j.buf = j.spare[:0]
	j.spare = nil // in use below until returned
	j.mu.Unlock()
	if len(b) > 0 {
		j.fileMu.Lock()
		_, werr := j.f.Write(b)
		if werr == nil {
			werr = j.f.Sync()
		}
		j.fileMu.Unlock()
		if werr != nil {
			j.fail(werr)
			return
		}
	}
	j.mu.Lock()
	j.spare = b[:0] // recycle the drained buffer's capacity
	if len(b) > 0 {
		j.fsyncs++
	}
	j.mu.Unlock()
	if len(b) > 0 {
		if fn := j.opts.OnFsync; fn != nil {
			fn()
		}
	}
}

// fail records a sticky write-path error and reports it.
func (j *Journal) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	if fn := j.opts.OnError; fn != nil {
		fn(err)
	}
}

func (j *Journal) syncLocked() error {
	j.fileMu.Lock()
	defer j.fileMu.Unlock()
	if len(j.buf) > 0 {
		if _, err := j.f.Write(j.buf); err != nil {
			j.err = err
			return err
		}
		j.buf = j.buf[:0]
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	j.fsyncs++
	return nil
}

// NeedRotate hints that enough records accumulated since the last
// rotation to be worth a snapshot+truncate.
func (j *Journal) NeedRotate() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records >= rotateEvery
}

// Rotate persists a fresh snapshot and truncates the log: the
// recovery cost becomes one snapshot load plus a short tail. state is
// called with appends blocked; it may take the owning layer's locks
// (the broker never appends while holding them) and must return the
// complete persistent state. Crash ordering is safe at every step:
// the snapshot is written to a temp file, fsynced and renamed into
// place before the log is truncated, and a crash between rename and
// truncate merely replays records the snapshot already reflects.
func (j *Journal) Rotate(state func() ([]byte, error)) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: rotate after close")
	}
	data, err := state()
	if err != nil {
		return fmt.Errorf("journal: building snapshot: %w", err)
	}
	tmp := filepath.Join(j.dir, snapshotFile+tmpSuffix)
	final := filepath.Join(j.dir, snapshotFile)
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, werr := tf.Write(data); werr != nil {
			err = werr
		} else if serr := tf.Sync(); serr != nil {
			err = serr
		}
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		j.err = err
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	syncDir(j.dir)
	j.fileMu.Lock()
	j.buf = j.buf[:0] // pending records predate the snapshot: all reflected in it
	if terr := j.f.Truncate(0); terr == nil {
		_, err = j.f.Seek(0, 0)
	} else {
		err = terr
	}
	j.fileMu.Unlock()
	if err != nil {
		j.err = err
		return fmt.Errorf("journal: truncating wal: %w", err)
	}
	j.records = 0
	// The snapshot reflects every tailed record: a stream reader that
	// needs anything older than the (now empty) tail takes the snapshot.
	j.dropHeadLocked(len(j.tail))
	return nil
}

// syncDir best-effort fsyncs a directory so a renamed snapshot's entry
// is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close flushes pending records and closes the log: the graceful
// shutdown path.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.shutdownSyncer()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash closes the journal as a crashing process would: buffered
// records that have not reached the file are dropped, nothing is
// flushed or fsynced. Tests and the experiment World use it to model
// a broker dying mid-batch.
func (j *Journal) Crash() {
	if j == nil {
		return
	}
	j.shutdownSyncer()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.buf = nil
	_ = j.f.Close()
}

func (j *Journal) shutdownSyncer() {
	j.mu.Lock()
	stopped := j.closed
	j.mu.Unlock()
	if stopped {
		return
	}
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
	<-j.done
}

// Stats returns a point-in-time activity snapshot.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Appends: j.appends, Fsyncs: j.fsyncs, TailBytes: j.tailSize}
}

// Err returns the sticky write-path error, nil while healthy.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
