package timeline

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ids"
)

// v1SegmentPath is a version 1 segment, encodeSegment(4, []int64{6, 4},
// fuzzSeedEvents(10)) as the version 1 encoder wrote it: the version 2
// events and time index, followed by a per-CVE ordinal index and a CVE bloom
// filter.
const v1SegmentPath = "testdata/segment-v1.seg"

// TestFileGolden pins the bytes of a sealed segment and a checkpoint to
// SHA-256 values recorded from their encoders. A mismatch means a timeline
// directory written by one commit no longer reads back under another.
func TestFileGolden(t *testing.T) {
	evs := fuzzSeedEvents(10)
	agg := NewAggregate()
	agg.Add(evs, nil)
	cut := time.Date(2022, 1, 1, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"segment", encodeSegment(4, []int64{6, 4}, evs),
			"bfec48cd78560f5f9583930985c63be73e60ade0b70ac74a19881a6d076bf988"},
		{"checkpoint", encodeCheckpoint(2, 3, cut, cut.Add(time.Minute), agg),
			"61c06b71235adb8b0a1e11474f0be3468ae73688b4dd9eaeb7b6b448c7c295b3"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.file)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: file bytes hash to %s, want %s — the timeline file format changed. "+
				"If that is deliberate, bump its version and re-record this hash.", c.name, got, c.want)
		}
	}
}

// TestSegmentV1Reads: a version 1 segment — the committed file is the one
// the version 1 encoder wrote, as its pinned hash shows — still opens, and
// reads back the same metadata and events as the version 2 encoding of the
// same batch.
func TestSegmentV1Reads(t *testing.T) {
	raw, err := os.ReadFile(v1SegmentPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got, want := hex.EncodeToString(sum[:]), "d87edb4f0edebc340eef32d78df6e5242586a0a865d1fce23d3468b54b79fb22"; got != want {
		t.Fatalf("%s hashes to %s, want the version 1 golden %s", v1SegmentPath, got, want)
	}
	evs := fuzzSeedEvents(10)
	fs := fault.NewSimFS(1, fault.Profile{})
	read := func(name string, file []byte) (*segmentMeta, []ids.Event) {
		t.Helper()
		if err := fs.WriteFile(name, file, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := parseSegment(name, file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out []ids.Event
		err = m.scanRange(fs, nil, false, time.Time{}, m.MaxTime, func(ev *ids.Event) error {
			out = append(out, *ev)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return m, out
	}
	m1, got1 := read("v1.seg", raw)
	m2, got2 := read("v2.seg", encodeSegment(4, []int64{6, 4}, evs))
	if m1.version != 1 || m2.version != segVersion {
		t.Fatalf("versions %d and %d, want 1 and %d", m1.version, m2.version, segVersion)
	}
	if m1.Seq != m2.Seq || !reflect.DeepEqual(m1.SealedCounts, m2.SealedCounts) || m1.Count != m2.Count ||
		!m1.MinTime.Equal(m2.MinTime) || !m1.MaxTime.Equal(m2.MaxTime) || !reflect.DeepEqual(m1.timeIdx, m2.timeIdx) {
		t.Fatalf("version 1 metadata %+v differs from version 2 %+v", m1, m2)
	}
	if !reflect.DeepEqual(got1, got2) || !reflect.DeepEqual(got1, evs) {
		t.Fatalf("version 1 scan %+v\nversion 2 scan %+v\nencoded %+v", got1, got2, evs)
	}
}
