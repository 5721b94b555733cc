// Package serve is the serving layer: a hardened, long-running
// simulation service over the scenario layer's determinism contract.
// Equal Spec fingerprints imply byte-identical results, so a result
// computed once can be served forever from a content-addressed store —
// the daemon (cmd/vmpd) validates submissions into fingerprints,
// schedules misses on the sweep worker pool, and answers repeats from
// disk.
//
// The package is explicitly *not* simulation-core: it owns wall
// clocks, sockets and fsync. Nothing in here may influence a
// simulation's bytes; the one bridge is context cancellation, which
// only ever ends runs whose results are discarded.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store file format: payload || checksum || magic.
const (
	// storeMagic terminates every record; its absence means a torn or
	// foreign file.
	storeMagic = "VMS1"
	// trailerLen is the 8-byte FNV-1a checksum plus the 4-byte magic.
	trailerLen = 12
)

// Subdirectories of the store root. Object directories are the
// two-hex-digit fingerprint prefixes alongside these.
const (
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
)

// ErrNotFound reports a fingerprint with no stored result.
var ErrNotFound = errors.New("serve: result not found")

// CorruptError reports a stored record that failed verification on
// read. The file has already been moved to the quarantine directory
// when Quarantine is non-empty; the caller should treat the read as a
// miss and recompute.
type CorruptError struct {
	Fingerprint string
	Reason      string
	Quarantine  string // path the corrupt file was moved to ("" if the move failed)
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("serve: stored result %s corrupt: %s", e.Fingerprint, e.Reason)
}

// StoreStats are the store's integrity and traffic counters, exposed
// verbatim through /statsz.
type StoreStats struct {
	Puts              int64 `json:"puts"`
	Gets              int64 `json:"gets"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Corruptions       int64 `json:"corruptions"`
	Quarantined       int64 `json:"quarantined"`
	RecoveredPartials int64 `json:"recovered_partials"`
	Evictions         int64 `json:"evictions"`
}

// Store is a crash-safe content-addressed result store keyed by Spec
// fingerprint. Records live at <root>/<fp[:2]>/<fp>, written via
// temp-file + fsync + atomic rename with a checksum trailer, verified
// on every read. A record is immutable once written: equal
// fingerprints imply equal bytes, so an overwrite can only ever write
// the same content (the server cross-checks and counts any violation).
type Store struct {
	root string
	// writeMu serializes the rename+dirsync pair; concurrent writers of
	// *different* fingerprints would be safe without it, but the
	// directory fsync is simplest done under one lock.
	writeMu sync.Mutex
	// maxBytes caps the total object bytes on disk; 0 means unbounded.
	// Guarded by writeMu (only read on the write path).
	maxBytes int64

	puts, gets, hits, misses atomic.Int64
	corruptions, quarantined atomic.Int64
	recovered, evictions     atomic.Int64
}

// OpenStore opens (creating if needed) a store rooted at dir and runs
// the startup recovery scan: leftover temp files from a crashed writer
// are moved to quarantine, as are object files whose size cannot even
// hold the trailer. Full checksum verification happens on read (and on
// demand via Scrub).
func OpenStore(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, d := range []string{dir, filepath.Join(dir, tmpDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: opening store: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Puts:              s.puts.Load(),
		Gets:              s.gets.Load(),
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Corruptions:       s.corruptions.Load(),
		Quarantined:       s.quarantined.Load(),
		RecoveredPartials: s.recovered.Load(),
		Evictions:         s.evictions.Load(),
	}
}

// SetMaxBytes caps the store's total object bytes (0 removes the cap)
// and immediately sweeps down to the new limit — the startup sweep when
// called right after OpenStore. Records are evicted least-recently-used
// first; the store maintains its own recency via Chtimes on every hit,
// so the order survives relatime/noatime mounts.
func (s *Store) SetMaxBytes(n int64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.maxBytes = n
	return s.evictLocked()
}

// evictLocked removes oldest-first (by the store-maintained access
// time, fingerprint as a deterministic tiebreak) until total object
// bytes fit under maxBytes. Caller holds writeMu.
func (s *Store) evictLocked() error {
	if s.maxBytes <= 0 {
		return nil
	}
	type object struct {
		fp    string
		path  string
		size  int64
		atime time.Time
	}
	var objs []object
	var total int64
	if err := s.walkObjects(func(fp, path string, size int64) {
		fi, err := os.Stat(path)
		if err != nil {
			return // raced with quarantine
		}
		objs = append(objs, object{fp, path, size, fi.ModTime()})
		total += size
	}); err != nil {
		return err
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].atime.Equal(objs[j].atime) {
			return objs[i].atime.Before(objs[j].atime)
		}
		return objs[i].fp < objs[j].fp
	})
	for _, o := range objs {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(o.path); err != nil {
			continue // keep sweeping; the object stays counted against later sweeps
		}
		total -= o.size
		s.evictions.Add(1)
	}
	return nil
}

// ValidFingerprint reports whether fp is a well-formed content
// fingerprint: exactly 16 lowercase hex digits (scenario.Fingerprint's
// output format). The path layout derives from the fingerprint, so
// this is also the path-traversal guard: no separators, no dots, no
// uppercase aliases of the same object.
func ValidFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// objectPath maps a valid fingerprint to its on-disk location.
func (s *Store) objectPath(fp string) string {
	return filepath.Join(s.root, fp[:2], fp)
}

// checksum is FNV-1a over the payload — the same hash family the
// fingerprint itself uses, cheap and dependency-free.
func checksum(payload []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range payload {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// seal appends the checksum trailer to a payload.
func seal(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+trailerLen)
	out = append(out, payload...)
	sum := checksum(payload)
	for i := 0; i < 8; i++ {
		out = append(out, byte(sum>>(8*i)))
	}
	return append(out, storeMagic...)
}

// unseal verifies the trailer and returns the payload, or a reason the
// record is corrupt.
func unseal(data []byte) ([]byte, string) {
	if len(data) < trailerLen {
		return nil, fmt.Sprintf("%d bytes, shorter than the %d-byte trailer", len(data), trailerLen)
	}
	if string(data[len(data)-4:]) != storeMagic {
		return nil, "magic trailer missing (torn or foreign file)"
	}
	payload := data[:len(data)-trailerLen]
	var sum uint64
	for i := 0; i < 8; i++ {
		sum |= uint64(data[len(payload)+i]) << (8 * i)
	}
	if got := checksum(payload); got != sum {
		return nil, fmt.Sprintf("checksum mismatch: stored %016x, computed %016x", sum, got)
	}
	return payload, ""
}

// Put durably stores payload under fp: write to a private temp file,
// fsync it, atomically rename into place, fsync the directory. A crash
// at any point leaves either the old state or the new record — never a
// half-written object (a torn temp file is swept to quarantine by the
// next OpenStore).
func (s *Store) Put(fp string, payload []byte) error {
	if !ValidFingerprint(fp) {
		return fmt.Errorf("serve: invalid fingerprint %q", fp)
	}
	sealed := seal(payload)

	tmp, err := os.CreateTemp(filepath.Join(s.root, tmpDir), fp+".*.tmp")
	if err != nil {
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store put %s: fsync: %w", fp, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	dir := filepath.Join(s.root, fp[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}
	if err := os.Rename(tmpName, s.objectPath(fp)); err != nil {
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("serve: store put %s: %w", fp, err)
	}
	s.puts.Add(1)
	// Best-effort sweep while still holding writeMu: an eviction failure
	// must not fail the put that durably landed.
	_ = s.evictLocked()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Get reads and verifies the record stored under fp. A missing record
// returns ErrNotFound; a record that fails verification is moved to
// quarantine and returns a *CorruptError — the caller recomputes and
// re-Puts (the repair path), and bad bytes are never returned.
func (s *Store) Get(fp string) ([]byte, error) {
	if !ValidFingerprint(fp) {
		return nil, fmt.Errorf("serve: invalid fingerprint %q", fp)
	}
	s.gets.Add(1)
	data, err := os.ReadFile(s.objectPath(fp))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("serve: store get %s: %w", fp, err)
	}
	payload, reason := unseal(data)
	if reason != "" {
		s.corruptions.Add(1)
		q := s.quarantine(s.objectPath(fp))
		s.misses.Add(1)
		return nil, &CorruptError{Fingerprint: fp, Reason: reason, Quarantine: q}
	}
	s.hits.Add(1)
	// Bump the record's recency so LRU eviction sees hits even on
	// relatime/noatime mounts (best-effort; a failure just ages it).
	now := time.Now()
	_ = os.Chtimes(s.objectPath(fp), now, now)
	return payload, nil
}

// Has reports whether a verified record exists without counting a
// get (used by admission decisions). It stats only; corruption is
// discovered (and quarantined) on the eventual Get.
func (s *Store) Has(fp string) bool {
	if !ValidFingerprint(fp) {
		return false
	}
	fi, err := os.Stat(s.objectPath(fp))
	return err == nil && fi.Size() >= trailerLen
}

// quarantine moves a bad file into the quarantine directory, keeping
// the evidence while removing it from the serving path. Returns the
// destination ("" if the move failed — the file is then removed so it
// cannot be served again).
func (s *Store) quarantine(path string) string {
	dst := filepath.Join(s.root, quarantineDir, filepath.Base(path))
	// Keep distinct incidents distinct: suffix until free.
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.root, quarantineDir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		return ""
	}
	s.quarantined.Add(1)
	return dst
}

// recover is the startup scan: quarantine temp files abandoned by a
// crashed writer and object files too short to hold the trailer, and
// drop foreign names from object directories.
func (s *Store) recover() error {
	// Abandoned temp files: a crash between CreateTemp and rename.
	tmps, err := os.ReadDir(filepath.Join(s.root, tmpDir))
	if err != nil {
		return err
	}
	for _, e := range tmps {
		if e.IsDir() {
			continue
		}
		s.recovered.Add(1)
		s.quarantine(filepath.Join(s.root, tmpDir, e.Name()))
	}

	// Object directories: every entry must be a well-formed fingerprint
	// under its own prefix and at least trailer-sized.
	return s.walkObjects(func(fp, path string, size int64) {
		if size < trailerLen {
			s.corruptions.Add(1)
			s.quarantine(path)
		}
	})
}

// walkObjects visits every object file in deterministic (sorted)
// order. Entries that are not well-formed fingerprints in the right
// prefix directory are quarantined rather than visited.
func (s *Store) walkObjects(fn func(fp, path string, size int64)) error {
	prefixes, err := os.ReadDir(s.root)
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		name := p.Name()
		if !p.IsDir() || name == tmpDir || name == quarantineDir {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.root, name))
		if err != nil {
			return err
		}
		for _, e := range entries {
			path := filepath.Join(s.root, name, e.Name())
			fp := e.Name()
			if e.IsDir() || !ValidFingerprint(fp) || !strings.HasPrefix(fp, name) {
				s.quarantine(path)
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			fn(fp, path, fi.Size())
		}
	}
	return nil
}

// Fingerprints lists every stored fingerprint, sorted.
func (s *Store) Fingerprints() ([]string, error) {
	var out []string
	if err := s.walkObjects(func(fp, _ string, _ int64) { out = append(out, fp) }); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Scrub verifies the checksum of every stored record, quarantining
// failures, and reports how many records were checked and how many
// were corrupt. It is the deep version of the startup scan, run on
// demand (tests, CI, an operator endpoint).
func (s *Store) Scrub() (checked, corrupt int, err error) {
	var paths [][2]string
	if err := s.walkObjects(func(fp, path string, _ int64) {
		paths = append(paths, [2]string{fp, path})
	}); err != nil {
		return 0, 0, err
	}
	for _, fpPath := range paths {
		data, err := os.ReadFile(fpPath[1])
		if err != nil {
			continue // raced with quarantine or removal
		}
		checked++
		if _, reason := unseal(data); reason != "" {
			corrupt++
			s.corruptions.Add(1)
			s.quarantine(fpPath[1])
		}
	}
	return checked, corrupt, nil
}
