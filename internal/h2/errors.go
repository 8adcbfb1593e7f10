// Package h2 implements the HTTP/2 wire format (RFC 7540) and HPACK
// header compression (RFC 7541) from scratch on top of the standard
// library only.
//
// The package provides three pieces:
//
//   - Framing: FrameHeader, the concrete Frame types, MarshalFrame and
//     AppendFrame, and FrameScanner, which splits a byte stream into
//     frames incrementally.
//   - HPACK: Encoder and Decoder with the full static table, a dynamic
//     table, and canonical Huffman coding.
//   - RequestPacer: the attack's jitter knob as an io.Writer relay for
//     the client-to-server half of a live connection (cmd/h2proxy).
//
// The framing and HPACK layers are what the discrete-event simulation
// endpoints in internal/h2sim speak, so the bytes on the simulated
// wire are genuine RFC 7540 bytes. Live endpoints are net/http's
// prior-knowledge cleartext HTTP/2 (cmd/h2serve, cmd/h2get).
package h2

import (
	"errors"
	"fmt"
)

// ErrCode is an HTTP/2 error code as defined in RFC 7540 section 7.
// Error codes appear in RST_STREAM and GOAWAY frames.
type ErrCode uint32

// HTTP/2 error codes (RFC 7540 section 7).
const (
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	ErrCodeNo:                 "NO_ERROR",
	ErrCodeProtocol:           "PROTOCOL_ERROR",
	ErrCodeInternal:           "INTERNAL_ERROR",
	ErrCodeFlowControl:        "FLOW_CONTROL_ERROR",
	ErrCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	ErrCodeStreamClosed:       "STREAM_CLOSED",
	ErrCodeFrameSize:          "FRAME_SIZE_ERROR",
	ErrCodeRefusedStream:      "REFUSED_STREAM",
	ErrCodeCancel:             "CANCEL",
	ErrCodeCompression:        "COMPRESSION_ERROR",
	ErrCodeConnect:            "CONNECT_ERROR",
	ErrCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	ErrCodeInadequateSecurity: "INADEQUATE_SECURITY",
	ErrCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

// String returns the RFC 7540 name of the error code, or a hex value
// for unknown codes.
func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ERR_CODE_0x%x", uint32(e))
}

// ConnectionError is a connection-level protocol error (RFC 7540
// section 5.4.1). A ConnectionError requires the endpoint to send a
// GOAWAY frame and close the connection.
type ConnectionError struct {
	Code   ErrCode
	Reason string
}

// Error implements the error interface.
func (e ConnectionError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: connection error: %s", e.Code)
	}
	return fmt.Sprintf("h2: connection error: %s: %s", e.Code, e.Reason)
}

// StreamError is a stream-level protocol error (RFC 7540 section
// 5.4.2). A StreamError requires the endpoint to send a RST_STREAM
// frame for the affected stream.
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

// Error implements the error interface.
func (e StreamError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: stream %d error: %s", e.StreamID, e.Code)
	}
	return fmt.Sprintf("h2: stream %d error: %s: %s", e.StreamID, e.Code, e.Reason)
}

// Sentinel errors returned by framing and HPACK operations.
var (
	// ErrFrameTooLarge is returned when a frame exceeds the reader's
	// SETTINGS_MAX_FRAME_SIZE.
	ErrFrameTooLarge = errors.New("h2: frame too large")

	// ErrHeaderListTooLong is returned by the HPACK decoder when the
	// decoded header list exceeds the configured limit.
	ErrHeaderListTooLong = errors.New("h2: header list too long")
)
