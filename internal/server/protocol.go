package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"streamhist/internal/obs"
)

// The wire protocol of histserved. Everything that crosses the connection is
// a frame: an 8-byte header followed by a payload.
//
// Frame header (little-endian):
//
//	[0:2]  magic 0x4846 ("HF")
//	[2]    frame type
//	[3]    reserved, must be zero
//	[4:8]  payload length
//
// Requests (client → server) name a table and optionally a column as
// length-prefixed strings. Scan responses are a sequence of FramePages
// frames — each payload is a whole number of raw 8 KiB page images, exactly
// the bytes storage holds — terminated by a FrameScanEnd summary. The page
// payloads are deliberately transparent: the serving path relays storage
// bytes unchanged, the way the paper's splitter does, and every statistic is
// computed from a copy on the side.

// FrameMagic identifies a protocol frame.
const FrameMagic uint16 = 0x4846

// FrameHeaderSize is the fixed size of a frame header in bytes.
const FrameHeaderSize = 8

// MaxPayload bounds a frame payload; larger lengths are rejected before any
// allocation, so a corrupt or hostile header cannot balloon memory.
const MaxPayload = 1 << 20

// maxNameLen bounds table/column identifiers on the wire.
const maxNameLen = 256

// maxListEntries bounds repeated sections in list-shaped payloads.
const maxListEntries = 4096

// Frame types. Requests are low numbers, responses high.
const (
	// FrameScan requests a table scan: payload is a ScanRequest.
	FrameScan uint8 = 1
	// FrameStats requests a column's catalog entry: payload is a ScanRequest.
	FrameStats uint8 = 2
	// FrameList requests the table listing: empty payload.
	FrameList uint8 = 3
	// FrameTraceReport is the client's span trailer: after a traced scan
	// completes, the client ships the spans it recorded (dial, request,
	// stream, backoff…) back to the server so /traces can assemble the whole
	// tree. It is strictly fail-open and strictly one-way: the server NEVER
	// replies to it — not even with FrameError on a malformed payload —
	// because the client does not read a response, and any reply would be
	// consumed as the answer to the client's next request, desynchronising
	// the stream. A client only sends it after seeing FrameTraceInfo on the
	// same scan, so a legacy server is never handed an unknown frame.
	FrameTraceReport uint8 = 4

	// FramePages carries raw page images (a whole number of pages).
	FramePages uint8 = 16
	// FrameScanEnd terminates a scan: payload is a ScanSummary.
	FrameScanEnd uint8 = 17
	// FrameStatsResult answers FrameStats: payload is a StatsResult.
	FrameStatsResult uint8 = 18
	// FrameTables answers FrameList: payload is a table list.
	FrameTables uint8 = 19
	// FrameError reports a request failure: payload is a code and message.
	FrameError uint8 = 20
	// FramePagesCk carries raw page images followed by a checksum trailer:
	// for N pages the payload is N×8 KiB of page bytes and then N
	// little-endian uint32 CRC32C values, one per page, computed by storage
	// at encode time. The page bytes themselves are identical to what a
	// FramePages frame would carry — the trailer lets any consumer detect a
	// page corrupted in flight without changing the data layout.
	FramePagesCk uint8 = 21
	// FrameResumeInfo opens a resumed scan's response (Offset > 0): the
	// payload is one little-endian uint32, the page index the server will
	// actually stream from. The server aligns every resume down to a frame
	// boundary so the page frames it re-sends are byte-identical to the
	// original delivery; the client skips the pages it already holds. A
	// zero-offset scan never carries this frame, so pre-resume peers
	// interoperate unchanged.
	FrameResumeInfo uint8 = 22
	// FrameTraceInfo opens a traced scan's response: sent first, before any
	// resume info or pages, if and only if the request carried valid trace
	// context. Its payload echoes the trace ID and announces the server's
	// root span ID. Its presence is the capability handshake: only after
	// seeing it may the client send the FrameTraceReport trailer, so both
	// directions of a legacy↔tracing pairing degrade to today's byte
	// stream. An untraced request never sees this frame.
	FrameTraceInfo uint8 = 23
)

// PageChecksumSize is the per-page trailer cost of a FramePagesCk frame.
const PageChecksumSize = 4

// ErrBadFrame reports a malformed frame or payload.
var ErrBadFrame = errors.New("server: bad protocol frame")

// Sentinel request failures, carried over the wire as error codes so the
// client can round-trip them through errors.Is.
var (
	// ErrUnknownTable reports a scan/stats request for an unregistered table.
	ErrUnknownTable = errors.New("histserved: unknown table")
	// ErrUnknownColumn reports a request for a column the table lacks.
	ErrUnknownColumn = errors.New("histserved: unknown column")
	// ErrNoStats reports a STATS request before any scan refreshed the column.
	ErrNoStats = errors.New("histserved: no statistics gathered yet")
	// ErrBadRequest reports an undecodable or out-of-protocol request.
	ErrBadRequest = errors.New("histserved: bad request")
)

// Wire error codes for the sentinels above.
const (
	codeInternal      uint16 = 0
	codeUnknownTable  uint16 = 1
	codeUnknownColumn uint16 = 2
	codeNoStats       uint16 = 3
	codeBadRequest    uint16 = 4
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    uint8
	Payload []byte
}

// putHeader encodes the header of a frame carrying n payload bytes into
// hdr[:FrameHeaderSize].
func putHeader(hdr []byte, typ uint8, n int) {
	binary.LittleEndian.PutUint16(hdr[0:2], FrameMagic)
	hdr[2] = typ
	hdr[3] = 0
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
}

// AppendFrame appends the encoding of one frame to dst.
func AppendFrame(dst []byte, typ uint8, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	putHeader(hdr[:], typ, len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds limit %d", ErrBadFrame, len(payload), MaxPayload)
	}
	var hdr [FrameHeaderSize]byte
	putHeader(hdr[:], typ, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r into a freshly allocated payload,
// rejecting oversized payloads before allocating. It returns io.EOF only
// when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameBuf(r, nil)
	return f, err
}

// ReadFrameBuf is ReadFrame reading the payload into buf, which it grows
// when the payload does not fit and returns for the next call. The payload
// aliases that buffer: it is valid only until the buffer is reused, so a
// caller that keeps payload bytes must copy them. A connection that keeps
// one buffer reads every frame without allocating.
func ReadFrameBuf(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, buf, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f, n, err := decodeHeader(hdr[:])
	if err != nil {
		return Frame{}, buf, err
	}
	if n > 0 {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		f.Payload = buf[:n]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, buf, err
		}
	}
	return f, buf, nil
}

// decodeHeader validates a frame header and returns the declared payload
// length.
func decodeHeader(hdr []byte) (Frame, int, error) {
	if magic := binary.LittleEndian.Uint16(hdr[0:2]); magic != FrameMagic {
		return Frame{}, 0, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, magic)
	}
	if hdr[3] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: reserved byte %#x", ErrBadFrame, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload %d exceeds limit %d", ErrBadFrame, n, MaxPayload)
	}
	return Frame{Type: hdr[2]}, int(n), nil
}

// DecodeFrame decodes one frame from the start of buf, returning the frame
// and the number of bytes consumed. The payload aliases buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < FrameHeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(buf))
	}
	f, n, err := decodeHeader(buf[:FrameHeaderSize])
	if err != nil {
		return Frame{}, 0, err
	}
	if len(buf)-FrameHeaderSize < n {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadFrame, len(buf)-FrameHeaderSize, n)
	}
	f.Payload = buf[FrameHeaderSize : FrameHeaderSize+n]
	return f, FrameHeaderSize + n, nil
}

// ---- payload encodings ----

// appendString appends a u16-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// cutString consumes a u16-length-prefixed string from buf.
func cutString(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if n > maxNameLen {
		return "", nil, fmt.Errorf("%w: string length %d exceeds limit %d", ErrBadFrame, n, maxNameLen)
	}
	if len(buf) < n {
		return "", nil, fmt.Errorf("%w: truncated string body", ErrBadFrame)
	}
	return string(buf[:n]), buf[n:], nil
}

// EncodeResumeInfo serialises a FrameResumeInfo payload: the frame-aligned
// page index a resumed scan streams from.
func EncodeResumeInfo(startPage uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, startPage)
}

// DecodeResumeInfo parses a FrameResumeInfo payload.
func DecodeResumeInfo(buf []byte) (uint32, error) {
	if len(buf) != 4 {
		return 0, fmt.Errorf("%w: resume info is %d bytes, want 4", ErrBadFrame, len(buf))
	}
	return binary.LittleEndian.Uint32(buf), nil
}

// ScanRequest names the relation and column of a SCAN or STATS request.
type ScanRequest struct {
	Table  string
	Column string
	// Offset is the page index to start streaming from: a client resuming
	// an interrupted scan passes the number of pages it already holds. A
	// zero offset is a full scan and encodes identically to the original
	// request layout, so old peers interoperate.
	Offset uint32
	// TraceID carries the distributed trace this scan continues; zero means
	// untraced, and an untraced request encodes byte-identically to the
	// pre-tracing layout. Non-zero adds a versioned trace-context tail.
	TraceID uint64
	// ParentSpanID is the client-side span the server's root span parents
	// under (the client's root scan span). Meaningful only with TraceID.
	ParentSpanID uint64
}

// traceContextVersion is the trace-context tail layout this build encodes.
// Decoders reject version 0 (an impossible encoding — a tracing client
// always stamps its version) and skip versions they do not know, treating
// the request as untraced: an unknown future context must never break the
// scan it rides on.
const traceContextVersion = 1

// traceContextSize is the tail's wire size: version byte + trace ID +
// parent span ID.
const traceContextSize = 1 + 8 + 8

// EncodeScanRequest serialises a request payload.
func EncodeScanRequest(req ScanRequest) []byte {
	out := make([]byte, 0, 8+traceContextSize+len(req.Table)+len(req.Column))
	out = appendString(out, req.Table)
	out = appendString(out, req.Column)
	if req.TraceID != 0 {
		// The trace-context tail always carries the offset field, even at
		// zero, so the decoder can discriminate layouts by length alone.
		out = binary.LittleEndian.AppendUint32(out, req.Offset)
		out = append(out, traceContextVersion)
		out = binary.LittleEndian.AppendUint64(out, req.TraceID)
		return binary.LittleEndian.AppendUint64(out, req.ParentSpanID)
	}
	if req.Offset > 0 {
		out = binary.LittleEndian.AppendUint32(out, req.Offset)
	}
	return out
}

// DecodeScanRequest parses a request payload. The trailing-byte count picks
// the layout: 0 is the legacy request, 4 adds the resume offset, 4+17 adds
// the versioned trace context (offset, version byte, trace ID, parent span
// ID). Anything else is malformed — the discrimination is fuzz-guarded by
// FuzzDecodeFrame.
func DecodeScanRequest(buf []byte) (ScanRequest, error) {
	table, rest, err := cutString(buf)
	if err != nil {
		return ScanRequest{}, err
	}
	column, rest, err := cutString(rest)
	if err != nil {
		return ScanRequest{}, err
	}
	req := ScanRequest{Table: table, Column: column}
	switch len(rest) {
	case 0:
	case 4:
		req.Offset = binary.LittleEndian.Uint32(rest)
	case 4 + traceContextSize:
		req.Offset = binary.LittleEndian.Uint32(rest)
		switch ver := rest[4]; {
		case ver == 0:
			return ScanRequest{}, fmt.Errorf("%w: trace context version 0", ErrBadFrame)
		case ver == traceContextVersion:
			req.TraceID = binary.LittleEndian.Uint64(rest[5:13])
			req.ParentSpanID = binary.LittleEndian.Uint64(rest[13:21])
		default:
			// A future context version this build cannot read: serve the
			// scan untraced rather than fail it.
		}
	default:
		return ScanRequest{}, fmt.Errorf("%w: %d trailing bytes in request", ErrBadFrame, len(rest))
	}
	if table == "" {
		return ScanRequest{}, fmt.Errorf("%w: empty table name", ErrBadFrame)
	}
	return req, nil
}

// TraceInfo is a FrameTraceInfo payload: the server's half of the tracing
// handshake, echoing the trace it agreed to continue and naming the root
// span its own spans will hang under.
type TraceInfo struct {
	TraceID    uint64
	RootSpanID uint64
}

// EncodeTraceInfo serialises a FrameTraceInfo payload.
func EncodeTraceInfo(ti TraceInfo) []byte {
	out := make([]byte, 0, traceContextSize)
	out = append(out, traceContextVersion)
	out = binary.LittleEndian.AppendUint64(out, ti.TraceID)
	return binary.LittleEndian.AppendUint64(out, ti.RootSpanID)
}

// DecodeTraceInfo parses a FrameTraceInfo payload. Any version ≥ 1 with the
// v1 size is accepted — the fields a v1 reader needs lead the layout.
func DecodeTraceInfo(buf []byte) (TraceInfo, error) {
	if len(buf) != traceContextSize {
		return TraceInfo{}, fmt.Errorf("%w: trace info is %d bytes, want %d", ErrBadFrame, len(buf), traceContextSize)
	}
	if buf[0] == 0 {
		return TraceInfo{}, fmt.Errorf("%w: trace info version 0", ErrBadFrame)
	}
	return TraceInfo{
		TraceID:    binary.LittleEndian.Uint64(buf[1:9]),
		RootSpanID: binary.LittleEndian.Uint64(buf[9:17]),
	}, nil
}

// TraceReport is a FrameTraceReport payload: the spans one client-side scan
// recorded, shipped back so the server can assemble the full tree.
type TraceReport struct {
	TraceID uint64
	Spans   []obs.Span
}

// traceReportSpanFixed is the fixed wire cost of one reported span beside
// its name: lane, start, duration, hw cycles, span ID, parent ID, flags.
const traceReportSpanFixed = 4 + 8 + 8 + 8 + 8 + 8 + 1

// MaxTraceReportSpans bounds the spans one trailer may carry; a client with
// more (pathological redial storms) truncates rather than overflow the
// count field or the payload limit.
const MaxTraceReportSpans = maxListEntries

// EncodeTraceReport serialises a FrameTraceReport payload.
func EncodeTraceReport(r TraceReport) []byte {
	out := make([]byte, 0, 1+8+2+len(r.Spans)*(traceReportSpanFixed+16))
	out = append(out, traceContextVersion)
	out = binary.LittleEndian.AppendUint64(out, r.TraceID)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Spans)))
	for _, sp := range r.Spans {
		out = appendString(out, sp.Name)
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(sp.Lane)))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.StartNS))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.DurNS))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.HWCycles))
		out = binary.LittleEndian.AppendUint64(out, sp.SpanID)
		out = binary.LittleEndian.AppendUint64(out, sp.ParentID)
		var flags byte
		if sp.Retired {
			flags |= 1
		}
		out = append(out, flags)
	}
	return out
}

// DecodeTraceReport parses a FrameTraceReport payload. Same hostile-input
// posture as every other decoder here: counts and name lengths are bounded
// before any allocation, trailing bytes are rejected.
func DecodeTraceReport(buf []byte) (TraceReport, error) {
	if len(buf) < 1+8+2 {
		return TraceReport{}, fmt.Errorf("%w: trace report is %d bytes, want ≥ 11", ErrBadFrame, len(buf))
	}
	if buf[0] == 0 {
		return TraceReport{}, fmt.Errorf("%w: trace report version 0", ErrBadFrame)
	}
	r := TraceReport{TraceID: binary.LittleEndian.Uint64(buf[1:9])}
	if r.TraceID == 0 {
		return TraceReport{}, fmt.Errorf("%w: trace report with zero trace id", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(buf[9:11]))
	if n > maxListEntries {
		return TraceReport{}, fmt.Errorf("%w: trace report claims %d spans", ErrBadFrame, n)
	}
	rest := buf[11:]
	r.Spans = make([]obs.Span, 0, n)
	for i := 0; i < n; i++ {
		name, after, err := cutString(rest)
		if err != nil {
			return TraceReport{}, fmt.Errorf("%w: trace report span %d name", ErrBadFrame, i)
		}
		rest = after
		if len(rest) < traceReportSpanFixed {
			return TraceReport{}, fmt.Errorf("%w: trace report truncated in span %d", ErrBadFrame, i)
		}
		if rest[44]&^byte(1) != 0 {
			// Reserved flag bits must be zero in this version: rejecting them
			// keeps decode→encode byte-exact, which the fuzz harness enforces.
			return TraceReport{}, fmt.Errorf("%w: trace report span %d reserved flag bits", ErrBadFrame, i)
		}
		sp := obs.Span{
			Name:     name,
			Lane:     int(int32(binary.LittleEndian.Uint32(rest[0:4]))),
			StartNS:  int64(binary.LittleEndian.Uint64(rest[4:12])),
			DurNS:    int64(binary.LittleEndian.Uint64(rest[12:20])),
			HWCycles: int64(binary.LittleEndian.Uint64(rest[20:28])),
			SpanID:   binary.LittleEndian.Uint64(rest[28:36]),
			ParentID: binary.LittleEndian.Uint64(rest[36:44]),
			Retired:  rest[44]&1 != 0,
		}
		rest = rest[traceReportSpanFixed:]
		r.Spans = append(r.Spans, sp)
	}
	if len(rest) != 0 {
		return TraceReport{}, fmt.Errorf("%w: %d trailing bytes in trace report", ErrBadFrame, len(rest))
	}
	return r, nil
}

// ScanSummary closes a scan: what moved and what the movement bought.
type ScanSummary struct {
	// Pages and Bytes count the page images delivered to the client.
	Pages uint32
	Bytes uint64
	// Rows is the number of column values the side path binned (0 when the
	// side path was skipped or failed open).
	Rows uint64
	// Refreshed reports whether the scan installed a fresh histogram.
	Refreshed bool
	// Degraded reports that the side effect of this scan is incomplete: the
	// side path was skipped, cancelled, cut short by faults, or the
	// installed histogram undercounts. The page stream itself is unaffected
	// — degradation is strictly a statistics-quality signal. An undegraded
	// refreshed summary promises an exact histogram.
	Degraded bool
	// AccelCycles is the simulated accelerator completion time for this
	// scan (binning pipeline + histogram chain), in clock cycles.
	AccelCycles uint64
	// AccelSeconds is AccelCycles at the configured clock.
	AccelSeconds float64
	// SkippedTuples counts column values the side path could not bin
	// (quarantined pages plus bin-memory losses) when Degraded is set.
	SkippedTuples uint64
	// QuarantinedPages counts pages the side path rejected on checksum.
	QuarantinedPages uint32
	// LanesRetired counts side-path lanes the supervisor removed.
	LanesRetired uint32
	// Retries is not carried on the wire: the client fills it in with the
	// number of reconnect-and-resume rounds it needed to complete the scan.
	Retries uint32
}

// scanSummary sizes: the legacy layout and the extended one. The decoder
// accepts both so old capture files and peers keep working.
const (
	scanSummaryV1Size = 37
	scanSummaryV2Size = 53
)

// Summary flag bits (byte 20 of the encoding). The legacy layout stored a
// 0/1 refreshed boolean in the same byte, so bit 0 is backward compatible.
const (
	summaryFlagRefreshed byte = 1 << 0
	summaryFlagDegraded  byte = 1 << 1
)

// EncodeScanSummary serialises a FrameScanEnd payload.
func EncodeScanSummary(s ScanSummary) []byte {
	out := make([]byte, 0, scanSummaryV2Size)
	out = binary.LittleEndian.AppendUint32(out, s.Pages)
	out = binary.LittleEndian.AppendUint64(out, s.Bytes)
	out = binary.LittleEndian.AppendUint64(out, s.Rows)
	var flags byte
	if s.Refreshed {
		flags |= summaryFlagRefreshed
	}
	if s.Degraded {
		flags |= summaryFlagDegraded
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, s.AccelCycles)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.AccelSeconds))
	out = binary.LittleEndian.AppendUint64(out, s.SkippedTuples)
	out = binary.LittleEndian.AppendUint32(out, s.QuarantinedPages)
	return binary.LittleEndian.AppendUint32(out, s.LanesRetired)
}

// DecodeScanSummary parses a FrameScanEnd payload, legacy or extended.
func DecodeScanSummary(buf []byte) (ScanSummary, error) {
	if len(buf) != scanSummaryV1Size && len(buf) != scanSummaryV2Size {
		return ScanSummary{}, fmt.Errorf("%w: scan summary is %d bytes, want %d or %d",
			ErrBadFrame, len(buf), scanSummaryV1Size, scanSummaryV2Size)
	}
	var s ScanSummary
	s.Pages = binary.LittleEndian.Uint32(buf[0:4])
	s.Bytes = binary.LittleEndian.Uint64(buf[4:12])
	s.Rows = binary.LittleEndian.Uint64(buf[12:20])
	flags := buf[20]
	if flags&^(summaryFlagRefreshed|summaryFlagDegraded) != 0 {
		return ScanSummary{}, fmt.Errorf("%w: bad summary flags %#x", ErrBadFrame, flags)
	}
	s.Refreshed = flags&summaryFlagRefreshed != 0
	s.Degraded = flags&summaryFlagDegraded != 0
	s.AccelCycles = binary.LittleEndian.Uint64(buf[21:29])
	s.AccelSeconds = math.Float64frombits(binary.LittleEndian.Uint64(buf[29:37]))
	if len(buf) == scanSummaryV2Size {
		s.SkippedTuples = binary.LittleEndian.Uint64(buf[37:45])
		s.QuarantinedPages = binary.LittleEndian.Uint32(buf[45:49])
		s.LanesRetired = binary.LittleEndian.Uint32(buf[49:53])
	}
	return s, nil
}

// StatsResult is a STATS response: the catalog entry plus the histogram's
// own binary encoding (hist.Histogram.MarshalBinary) carried opaquely, and —
// since the sketch engine — the serialized sketch blocks the same scan
// refreshed (sketch encodings, also opaque here).
type StatsResult struct {
	RowCount  int64
	NDistinct int64
	Version   uint64
	Histogram []byte
	// Sketches carries the catalog entry's serialized statistic blocks
	// (internal/sketch encodings). Empty both for pre-sketch peers and for
	// servers running with the chain disabled.
	Sketches [][]byte
}

// statsResultV2Marker introduces the sectioned v2 layout after the fixed
// 24-byte header. It cannot collide with a legacy payload: in the v1 layout
// offset 24 is the first byte of the histogram encoding, which always starts
// with 0x53 (the low byte of hist's little-endian magic).
const statsResultV2Marker byte = 0xF2

// EncodeStatsResult serialises a FrameStatsResult payload. Without sketches
// it emits the legacy v1 layout (fixed header, histogram as the remainder),
// byte-for-byte what pre-sketch servers sent, so old clients interoperate
// whenever there is nothing new to say. With sketches it emits v2: the same
// header, the marker byte, a length-prefixed histogram, and a counted list
// of length-prefixed sketch encodings.
func EncodeStatsResult(s StatsResult) []byte {
	out := make([]byte, 0, 24+len(s.Histogram))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.RowCount))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.NDistinct))
	out = binary.LittleEndian.AppendUint64(out, s.Version)
	if len(s.Sketches) == 0 {
		return append(out, s.Histogram...)
	}
	out = append(out, statsResultV2Marker)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Histogram)))
	out = append(out, s.Histogram...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Sketches)))
	for _, raw := range s.Sketches {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(raw)))
		out = append(out, raw...)
	}
	return out
}

// DecodeStatsResult parses a FrameStatsResult payload, either layout. The
// histogram and sketch bytes alias buf and are not themselves validated here
// — the client decodes them with hist.Histogram.UnmarshalBinary and
// sketch.Decode, which detect corruption.
func DecodeStatsResult(buf []byte) (StatsResult, error) {
	if len(buf) < 24 {
		return StatsResult{}, fmt.Errorf("%w: stats result is %d bytes, want ≥ 24", ErrBadFrame, len(buf))
	}
	s := StatsResult{
		RowCount:  int64(binary.LittleEndian.Uint64(buf[0:8])),
		NDistinct: int64(binary.LittleEndian.Uint64(buf[8:16])),
		Version:   binary.LittleEndian.Uint64(buf[16:24]),
	}
	rest := buf[24:]
	if len(rest) == 0 || rest[0] != statsResultV2Marker {
		s.Histogram = rest
		return s, nil
	}
	rest = rest[1:]
	if len(rest) < 4 {
		return StatsResult{}, fmt.Errorf("%w: stats result v2 truncated before histogram length", ErrBadFrame)
	}
	histLen := int(binary.LittleEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if histLen > len(rest) {
		return StatsResult{}, fmt.Errorf("%w: stats result histogram length %d exceeds payload", ErrBadFrame, histLen)
	}
	s.Histogram = rest[:histLen]
	rest = rest[histLen:]
	if len(rest) < 2 {
		return StatsResult{}, fmt.Errorf("%w: stats result v2 truncated before sketch count", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if n > maxListEntries {
		return StatsResult{}, fmt.Errorf("%w: stats result claims %d sketches", ErrBadFrame, n)
	}
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return StatsResult{}, fmt.Errorf("%w: stats result truncated in sketch %d length", ErrBadFrame, i)
		}
		l := int(binary.LittleEndian.Uint32(rest[0:4]))
		rest = rest[4:]
		if l > len(rest) {
			return StatsResult{}, fmt.Errorf("%w: stats result sketch %d length %d exceeds payload", ErrBadFrame, i, l)
		}
		s.Sketches = append(s.Sketches, rest[:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return StatsResult{}, fmt.Errorf("%w: stats result has %d trailing bytes", ErrBadFrame, len(rest))
	}
	return s, nil
}

// TableInfo is one entry of the table listing.
type TableInfo struct {
	Name string
	Rows int64
	// Columns lists every column of the schema.
	Columns []string
	// StatsColumns lists the columns whose histograms are currently in the
	// catalog — i.e. the columns some served scan has already refreshed.
	StatsColumns []string
}

// EncodeTableList serialises a FrameTables payload.
func EncodeTableList(tables []TableInfo) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint16(out, uint16(len(tables)))
	for _, t := range tables {
		out = appendString(out, t.Name)
		out = binary.LittleEndian.AppendUint64(out, uint64(t.Rows))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t.Columns)))
		for _, c := range t.Columns {
			out = appendString(out, c)
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t.StatsColumns)))
		for _, c := range t.StatsColumns {
			out = appendString(out, c)
		}
	}
	return out
}

// DecodeTableList parses a FrameTables payload.
func DecodeTableList(buf []byte) ([]TableInfo, error) {
	cutCount := func(b []byte) (int, []byte, error) {
		if len(b) < 2 {
			return 0, nil, fmt.Errorf("%w: truncated count", ErrBadFrame)
		}
		n := int(binary.LittleEndian.Uint16(b))
		if n > maxListEntries {
			return 0, nil, fmt.Errorf("%w: count %d exceeds limit %d", ErrBadFrame, n, maxListEntries)
		}
		return n, b[2:], nil
	}
	n, buf, err := cutCount(buf)
	if err != nil {
		return nil, err
	}
	tables := make([]TableInfo, 0, n)
	for i := 0; i < n; i++ {
		var t TableInfo
		if t.Name, buf, err = cutString(buf); err != nil {
			return nil, err
		}
		if len(buf) < 8 {
			return nil, fmt.Errorf("%w: truncated row count", ErrBadFrame)
		}
		t.Rows = int64(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		var nc int
		if nc, buf, err = cutCount(buf); err != nil {
			return nil, err
		}
		for j := 0; j < nc; j++ {
			var c string
			if c, buf, err = cutString(buf); err != nil {
				return nil, err
			}
			t.Columns = append(t.Columns, c)
		}
		if nc, buf, err = cutCount(buf); err != nil {
			return nil, err
		}
		for j := 0; j < nc; j++ {
			var c string
			if c, buf, err = cutString(buf); err != nil {
				return nil, err
			}
			t.StatsColumns = append(t.StatsColumns, c)
		}
		tables = append(tables, t)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in table list", ErrBadFrame, len(buf))
	}
	return tables, nil
}

// EncodeError serialises a FrameError payload from an error, mapping the
// protocol sentinels to stable codes.
func EncodeError(err error) []byte {
	code := codeInternal
	switch {
	case errors.Is(err, ErrUnknownTable):
		code = codeUnknownTable
	case errors.Is(err, ErrUnknownColumn):
		code = codeUnknownColumn
	case errors.Is(err, ErrNoStats):
		code = codeNoStats
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrBadFrame):
		code = codeBadRequest
	}
	msg := err.Error()
	if len(msg) > MaxPayload-2 {
		msg = msg[:MaxPayload-2]
	}
	out := make([]byte, 0, 2+len(msg))
	out = binary.LittleEndian.AppendUint16(out, code)
	return append(out, msg...)
}

// DecodeError reconstructs the error carried by a FrameError payload. The
// result wraps the matching sentinel so errors.Is works across the wire.
func DecodeError(buf []byte) error {
	if len(buf) < 2 {
		return fmt.Errorf("%w: truncated error payload", ErrBadFrame)
	}
	code := binary.LittleEndian.Uint16(buf[0:2])
	msg := string(buf[2:])
	var sentinel error
	switch code {
	case codeUnknownTable:
		sentinel = ErrUnknownTable
	case codeUnknownColumn:
		sentinel = ErrUnknownColumn
	case codeNoStats:
		sentinel = ErrNoStats
	case codeBadRequest:
		sentinel = ErrBadRequest
	default:
		return fmt.Errorf("histserved: server error: %s", msg)
	}
	return fmt.Errorf("%w (%s)", sentinel, msg)
}
