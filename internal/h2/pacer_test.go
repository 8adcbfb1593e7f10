package h2

import (
	"bytes"
	"testing"
	"time"
)

func TestPacerPassesPrefaceUntouched(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, 0, true)
	if _, err := p.Write([]byte(ClientPreface)); err != nil {
		t.Fatal(err)
	}
	if out.String() != ClientPreface {
		t.Errorf("preface corrupted: %q", out.String())
	}
}

func TestPacerReassemblesSplitFrames(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, 0, false)
	wire := MarshalFrame(&SettingsFrame{})
	wire = AppendFrame(wire, &DataFrame{StreamID: 1, Data: []byte("hello world")})
	// Dribble one byte at a time; output must equal input eventually.
	for _, b := range wire {
		if _, err := p.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Errorf("pacer corrupted the stream:\n got %x\nwant %x", out.Bytes(), wire)
	}
}

func TestPacerSpacesRequests(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, 40*time.Millisecond, false)
	var slept time.Duration
	p.Sleep = func(d time.Duration) { slept += d }

	var wire []byte
	for i := 0; i < 3; i++ {
		wire = AppendFrame(wire, &HeadersFrame{
			StreamID:      uint32(1 + 2*i),
			BlockFragment: []byte{0x82},
			EndHeaders:    true,
			EndStream:     true,
		})
	}
	if _, err := p.Write(wire); err != nil {
		t.Fatal(err)
	}
	// Three back-to-back requests: the 2nd and 3rd must each wait
	// nearly the full spacing.
	if slept < 70*time.Millisecond {
		t.Errorf("total hold = %v, want >= ~80ms for two spaced releases", slept)
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Error("pacer altered frame bytes")
	}
}

func TestPacerDoesNotHoldDataFrames(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, time.Second, false)
	p.Sleep = func(time.Duration) { t.Error("DATA frame was held") }
	wire := MarshalFrame(&DataFrame{StreamID: 1, Data: make([]byte, 100)})
	if _, err := p.Write(wire); err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(wire) {
		t.Error("DATA frame not forwarded")
	}
}

func TestPacerObservesFrames(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, 0, false)
	var seen []FrameType
	p.OnFrame = func(f Frame) { seen = append(seen, f.Header().Type) }
	var wire []byte
	wire = AppendFrame(wire, &SettingsFrame{})
	wire = AppendFrame(wire, &HeadersFrame{StreamID: 1, BlockFragment: []byte{0x82}, EndHeaders: true})
	wire = AppendFrame(wire, &RSTStreamFrame{StreamID: 1, Code: ErrCodeCancel})
	if _, err := p.Write(wire); err != nil {
		t.Fatal(err)
	}
	want := []FrameType{FrameSettings, FrameHeaders, FrameRSTStream}
	if len(seen) != len(want) {
		t.Fatalf("observed %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("frame %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

// A frame larger than the default 16 KiB maximum, arriving after a
// frame split across writes, must not cost the split frame's bytes.
func TestPacerRelaysOversizedFrameAfterSplit(t *testing.T) {
	var out bytes.Buffer
	p := NewRequestPacer(&out, 0, false)
	p.OnFrame = func(Frame) {}
	wire := MarshalFrame(&DataFrame{StreamID: 1, Data: make([]byte, 1000)})
	wire = AppendFrame(wire, &DataFrame{StreamID: 3, Data: make([]byte, 20000)})
	for _, part := range [][]byte{wire[:500], wire[500:]} {
		if _, err := p.Write(part); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Errorf("relayed %d bytes, want the %d written unchanged", out.Len(), len(wire))
	}
}

// Padding bytes are relayed as written, not re-marshalled as zeros.
func TestPacerKeepsPadding(t *testing.T) {
	wire := MarshalFrame(&DataFrame{StreamID: 1, Data: []byte("body"), Padded: true, PadLength: 4})
	copy(wire[len(wire)-4:], "\xaa\xbb\xcc\xdd")
	var out bytes.Buffer
	p := NewRequestPacer(&out, 0, false)
	var seen []byte
	p.OnFrame = func(f Frame) { seen = append(seen, f.(*DataFrame).Data...) }
	if _, err := p.Write(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Errorf("padding rewritten:\n got %x\nwant %x", out.Bytes(), wire)
	}
	if string(seen) != "body" {
		t.Errorf("OnFrame saw data %q, want %q", seen, "body")
	}
}

// Bytes ahead of a held request leave before the hold. A HEADERS
// frame that arrives whole is held whole; one whose header straddles
// writes is held from its type octet on.
func TestPacerReleasesBytesBeforeHeldRequest(t *testing.T) {
	data := MarshalFrame(&DataFrame{StreamID: 1, Data: []byte("ahead")})
	req := MarshalFrame(&HeadersFrame{StreamID: 3, BlockFragment: []byte{0x82}, EndHeaders: true})
	wire := append(append([]byte{}, data...), req...)
	for _, c := range []struct{ split, beforeHold int }{
		{len(wire), len(data)},
		{len(data) + 2, len(data) + 3},
	} {
		var out bytes.Buffer
		p := NewRequestPacer(&out, time.Second, false)
		p.lastRelease = time.Now() // the request must wait
		holds := 0
		p.Sleep = func(time.Duration) {
			holds++
			if !bytes.Equal(out.Bytes(), wire[:c.beforeHold]) {
				t.Errorf("split %d: wrote %x before the hold, want %x", c.split, out.Bytes(), wire[:c.beforeHold])
			}
		}
		for _, part := range [][]byte{wire[:c.split], wire[c.split:]} {
			if _, err := p.Write(part); err != nil {
				t.Fatal(err)
			}
		}
		if holds != 1 || !bytes.Equal(out.Bytes(), wire) {
			t.Errorf("split %d: %d holds, relayed %x, want 1 hold and %x", c.split, holds, out.Bytes(), wire)
		}
	}
}

// A frame of a type the pacer does not know is relayed unchanged and
// at once, and observed as an UnknownFrame.
func TestUnknownFrameTypeIgnored(t *testing.T) {
	wire := MarshalFrame(&UnknownFrame{FH: FrameHeader{Type: FrameType(0x77), StreamID: 1}, Payload: []byte{1, 2, 3}})
	wire = AppendFrame(wire, &DataFrame{StreamID: 1, Data: []byte("after")})
	var out bytes.Buffer
	p := NewRequestPacer(&out, time.Second, false)
	p.Sleep = func(time.Duration) { t.Error("unknown frame was held") }
	var seen []Frame
	p.OnFrame = func(f Frame) { seen = append(seen, f) }
	if _, err := p.Write(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Errorf("relayed %x, want %x", out.Bytes(), wire)
	}
	if len(seen) != 2 {
		t.Fatalf("observed %d frames, want 2", len(seen))
	}
	if u, ok := seen[0].(*UnknownFrame); !ok || u.FH.Type != 0x77 {
		t.Errorf("first frame observed as %T %v, want UnknownFrame of type 0x77", seen[0], seen[0].Header())
	}
}
