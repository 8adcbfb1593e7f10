package h2

import (
	"bytes"
	"testing"
	"time"
)

// FuzzHpackDecode ensures the HPACK decoder never panics and that
// whatever it accepts re-encodes to something it accepts again.
func FuzzHpackDecode(f *testing.F) {
	f.Add([]byte{0x82})
	f.Add([]byte{0x40, 0x0a, 'c', 'u', 's', 't', 'o', 'm', '-', 'k', 'e', 'y', 0x01, 'v'})
	f.Add([]byte{0x20})
	f.Add([]byte{0x80})
	f.Add([]byte{0x1f, 0x9a, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewHpackDecoder(4096)
		fields, err := d.DecodeFull(data)
		if err != nil {
			return
		}
		// Round-trip what decoded cleanly.
		e := NewHpackEncoder(4096)
		blk := e.AppendHeaderBlock(nil, fields)
		d2 := NewHpackDecoder(4096)
		fields2, err := d2.DecodeFull(blk)
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		if len(fields2) != len(fields) {
			t.Fatalf("round trip changed field count: %d -> %d", len(fields), len(fields2))
		}
	})
}

// FuzzFrameScanner ensures arbitrary byte streams never panic the
// scanner and that chunking does not change the result.
func FuzzFrameScanner(f *testing.F) {
	f.Add(MarshalFrame(&PingFrame{}), 1)
	f.Add(MarshalFrame(&DataFrame{StreamID: 1, Data: []byte("abc")}), 3)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 2)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		var whole FrameScanner
		wf, werr := whole.Feed(data)

		var piecewise FrameScanner
		var pf []Frame
		var perr error
		for off := 0; off < len(data) && perr == nil; off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			var got []Frame
			got, perr = piecewise.Feed(data[off:end])
			pf = append(pf, got...)
		}
		if (werr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: whole=%v piecewise=%v", werr, perr)
		}
		if werr == nil && len(wf) != len(pf) {
			t.Fatalf("frame count mismatch: whole=%d piecewise=%d", len(wf), len(pf))
		}
	})
}

// FuzzHuffman ensures decode never panics and encode/decode stays an
// identity.
func FuzzHuffman(f *testing.F) {
	f.Add([]byte("www.example.com"))
	f.Add([]byte{0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary input to the decoder must not panic.
		_, _ = HuffmanDecode(nil, data) //nolint:errcheck // error is fine
		// Encoding then decoding must return the input.
		enc := AppendHuffmanString(nil, string(data))
		dec, err := HuffmanDecode(nil, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("huffman round trip mismatch")
		}
	})
}

// FuzzRequestPacer: at spacing 0 the pacer relays any byte stream,
// split at any point, unchanged, with or without an expected preface.
func FuzzRequestPacer(f *testing.F) {
	var wire []byte
	wire = AppendFrame(wire, &SettingsFrame{Settings: []Setting{{SettingEnablePush, 0}}})
	wire = AppendFrame(wire, &HeadersFrame{StreamID: 1, BlockFragment: []byte{0x82}, EndHeaders: true})
	wire = AppendFrame(wire, &DataFrame{StreamID: 1, Data: make([]byte, 20000), Padded: true, PadLength: 3})
	f.Add(append([]byte(ClientPreface), wire...), uint(30), true)
	f.Add(wire, uint(12), false)
	f.Add([]byte{0, 0, 5, 1, 0}, uint(2), false)
	f.Fuzz(func(t *testing.T, data []byte, split uint, preface bool) {
		var out bytes.Buffer
		p := NewRequestPacer(&out, 0, preface)
		p.OnFrame = func(fr Frame) { _ = fr.Header() }
		p.Sleep = func(time.Duration) { t.Fatal("held a frame at spacing 0") }
		k := int(split % uint(len(data)+1))
		for _, part := range [][]byte{data[:k], data[k:]} {
			if n, err := p.Write(part); err != nil || n != len(part) {
				t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(part))
			}
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("relayed %x, want %x", out.Bytes(), data)
		}
	})
}
