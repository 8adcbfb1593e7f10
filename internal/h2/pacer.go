package h2

import (
	"io"
	"time"
)

// RequestPacer is an io.Writer middlebox for the client→server half
// of a live HTTP/2 connection: it relays the byte stream unchanged,
// tracking frame boundaries, and enforces a minimum spacing between
// frames that open requests (HEADERS), releasing everything else
// immediately. This is the real-network implementation of the
// paper's jitter knob: a gateway that holds GET packets so the server
// never has two requests in flight closer than Spacing apart.
//
// Every byte written is forwarded as it arrives, in order and
// unmodified; the pacer buffers nothing it relays. A HEADERS frame is
// held from its first byte when that byte arrives in the same Write
// as the frame's type octet, and otherwise from the type octet.
//
// Write blocks while holding a request frame, so run the pacer inside
// its own relay goroutine. The zero value is not usable; construct
// with NewRequestPacer.
type RequestPacer struct {
	dst     io.Writer
	spacing time.Duration

	// OnFrame, when non-nil, observes every frame (after the preface)
	// that parses, in order, once its last byte has been written to
	// the pacer. The frame aliases the pacer's buffer and is valid
	// only during the call.
	OnFrame func(Frame)

	// Sleep is the blocking wait used between releases; overridable
	// for tests. Defaults to time.Sleep.
	Sleep func(time.Duration)

	prefaceLeft int
	hdr         [FrameHeaderLen]byte // the current frame's header
	nhdr        int                  // header bytes of the current frame seen
	left        int                  // payload bytes of the current frame still to come
	payload     []byte               // the current frame's payload, kept for OnFrame
	lastRelease time.Time
}

// NewRequestPacer wraps dst. expectPreface should be true when the
// stream starts with the client connection preface (a raw client→
// server connection) and false when the preface was already consumed.
func NewRequestPacer(dst io.Writer, spacing time.Duration, expectPreface bool) *RequestPacer {
	p := &RequestPacer{dst: dst, spacing: spacing, Sleep: time.Sleep}
	if expectPreface {
		p.prefaceLeft = len(ClientPreface)
	}
	return p
}

// Write forwards b, holding frames that carry request HEADERS so that
// consecutive requests are at least Spacing apart on the upstream
// side. It always reports len(b) on success.
func (p *RequestPacer) Write(b []byte) (int, error) {
	i := min(p.prefaceLeft, len(b))
	p.prefaceLeft -= i
	start := 0    // b[start:] has not been written to dst yet
	frameAt := -1 // where the current frame starts in b, if it does
	for i < len(b) {
		if p.nhdr < FrameHeaderLen {
			if p.nhdr == 0 {
				frameAt = i
			}
			if p.nhdr == 3 && FrameType(b[i]) == FrameHeaders && p.spacing > 0 {
				cut := i
				if frameAt >= 0 {
					cut = frameAt
				}
				if _, err := p.dst.Write(b[start:cut]); err != nil {
					return 0, err
				}
				start = cut
				p.hold()
			}
			p.hdr[p.nhdr] = b[i]
			p.nhdr++
			i++
			if p.nhdr == FrameHeaderLen {
				p.left = int(parseFrameHeader(p.hdr[:]).Length)
				p.payload = p.payload[:0]
			}
		} else {
			n := min(p.left, len(b)-i)
			if p.OnFrame != nil {
				p.payload = append(p.payload, b[i:i+n]...)
			}
			p.left -= n
			i += n
		}
		if p.nhdr == FrameHeaderLen && p.left == 0 {
			p.observe()
			p.nhdr = 0
		}
	}
	if start < len(b) {
		if _, err := p.dst.Write(b[start:]); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// hold blocks until Spacing has passed since the previous release.
func (p *RequestPacer) hold() {
	if wait := time.Until(p.lastRelease.Add(p.spacing)); wait > 0 {
		p.Sleep(wait)
	}
	p.lastRelease = time.Now()
}

// observe hands the just-completed frame to OnFrame. A frame that
// does not parse is relayed all the same, just not observed.
func (p *RequestPacer) observe() {
	if p.OnFrame == nil {
		return
	}
	if f, err := ParseFramePayload(parseFrameHeader(p.hdr[:]), p.payload); err == nil {
		p.OnFrame(f)
	}
}

var _ io.Writer = (*RequestPacer)(nil)
