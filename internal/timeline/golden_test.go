package timeline

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestFileGolden pins the bytes of a sealed segment and a checkpoint to
// SHA-256 values recorded from the hand-written encoders that preceded the
// shared field codec. A mismatch means a timeline directory written by one
// commit no longer reads back under another.
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
			"d87edb4f0edebc340eef32d78df6e5242586a0a865d1fce23d3468b54b79fb22"},
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
