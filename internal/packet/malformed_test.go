package packet

import (
	"errors"
	"testing"
)

// TestMalformedFrames: each fixture frame fails DecodeInto with its own
// error class, so a fixture that plants them covers every rejection path.
func TestMalformedFrames(t *testing.T) {
	valid, err := NewBuilder(1).Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagPSH | FlagACK, Payload: []byte("GET /")})
	if err != nil {
		t.Fatal(err)
	}
	want := []error{ErrTruncated, ErrBadHdrLen, ErrTruncated, ErrBadChecksum, ErrNotTCP, ErrTruncated, ErrNotIPv4}
	frames := MalformedFrames(valid)
	if len(frames) != len(want) {
		t.Fatalf("%d frames, want %d", len(frames), len(want))
	}
	var p Packet
	for i, f := range frames {
		if err := DecodeInto(&p, f); !errors.Is(err, want[i]) {
			t.Errorf("frame %d: DecodeInto error %v, want %v", i, err, want[i])
		}
	}
	if err := DecodeInto(&p, valid); err != nil {
		t.Fatalf("the source frame was modified: %v", err)
	}
}
