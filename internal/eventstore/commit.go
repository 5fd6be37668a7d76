package eventstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/wal"
)

// The commit journal is what turns the store's per-shard fsyncs into one
// atomic durability point. Each Commit appends a single record naming the
// byte size every shard log had when its contents were forced to disk, plus
// an opaque caller payload (the fleet coordinator stores its per-sensor
// watermarks there, so "these events are durable" and "these batches are
// applied" become one record that is either wholly on disk or wholly absent).
//
// On open, the last intact record is the recovery contract: anything a shard
// file holds beyond its committed size is an uncommitted tail — appended,
// maybe even flushed by the page cache, but never promised durable — and is
// truncated away. Without that truncation a crash between append and commit
// could leave events in the store that the commit meta does not cover, and a
// redelivering sensor would apply them twice.
//
// The file is a wal.Log. Record payload:
//
//	u32 shardCount | shardCount x u64 committed size | u32 metaLen | meta
//
// The journal compacts to its newest record once it grows past a threshold.

var commitMagic = [8]byte{'E', 'V', 'C', 'M', 'T', 0x00, 0x01, '\n'}

const (
	commitLogName = "COMMITS.log"
	// commitCompactAt triggers a rewrite once the journal grows past this
	// size. Only the newest record matters, so compaction keeps exactly one.
	commitCompactAt = 1 << 20
)

// commitRecord is one journalled durability point.
type commitRecord struct {
	sizes []int64
	meta  []byte
}

type commitJournal struct {
	log  *wal.Log
	last *commitRecord // newest recovered or appended record, nil if none
}

// openCommitJournal opens (creating if needed) the journal in dir and
// recovers the newest intact record.
func openCommitJournal(fs fault.FS, dir string) (*commitJournal, error) {
	j := &commitJournal{}
	log, err := wal.Open(fs, filepath.Join(dir, commitLogName), commitMagic, maxRecordLen, func(payload []byte) error {
		rec, err := decodeCommitRecord(payload)
		if err != nil {
			return err
		}
		j.last = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("eventstore: commit journal: %w", err)
	}
	j.log = log
	return j, nil
}

func encodeCommitRecord(sizes []int64, meta []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(sizes)))
	for _, n := range sizes {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	return append(buf, meta...)
}

func decodeCommitRecord(b []byte) (*commitRecord, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("eventstore: commit record truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n <= 0 || n > 1<<16 || len(b) < n*8+4 {
		return nil, fmt.Errorf("eventstore: commit record declares %d shards in %d bytes", n, len(b))
	}
	rec := &commitRecord{sizes: make([]int64, n)}
	for i := 0; i < n; i++ {
		rec.sizes[i] = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	metaLen := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != metaLen {
		return nil, fmt.Errorf("eventstore: commit record meta is %d bytes, declared %d", len(b), metaLen)
	}
	rec.meta = append([]byte(nil), b...)
	return rec, nil
}

// append writes and fsyncs one record, making it the recovery point. The
// record is the durability promise for everything the shard fsyncs just
// covered — it must hit the disk, not the page cache, before the caller acts
// on it (acks a sensor, advances a checkpoint). A record that fails to write
// or sync is dropped from the chain (wal.Log.AppendSync): were it left in
// place, the next commit's record would land behind a potential tear, and
// recovery would fall back to a stale record — truncating shards below sizes
// that later commits promised durable.
func (j *commitJournal) append(sizes []int64, meta []byte) error {
	rec := &commitRecord{sizes: append([]int64(nil), sizes...), meta: append([]byte(nil), meta...)}
	if err := j.log.AppendSync(wal.AppendFrame(nil, encodeCommitRecord(rec.sizes, rec.meta))); err != nil {
		return fmt.Errorf("eventstore: appending commit record: %w", err)
	}
	j.last = rec
	if j.log.Size() >= commitCompactAt {
		return j.compact()
	}
	return nil
}

// compact rewrites the journal as its single newest record.
func (j *commitJournal) compact() error {
	return j.log.Rewrite(func(w io.Writer) error {
		_, err := w.Write(wal.AppendFrame(nil, encodeCommitRecord(j.last.sizes, j.last.meta)))
		return err
	})
}

func (j *commitJournal) Close() error { return j.log.Close() }
