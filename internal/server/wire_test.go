package server_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/faults"
	"streamhist/internal/page"
	"streamhist/internal/server"
)

// transports are the two ways page frames leave the server: as writev
// vectors on a socket, and buffered through bufio on anything else.
var transports = []string{"tcp", "pipe"}

// connect opens one connection to srv over loopback TCP or net.Pipe.
func connect(t *testing.T, srv *server.Server, transport string) net.Conn {
	t.Helper()
	if transport == "pipe" {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		return cc
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeConn(sc)
	return cc
}

// rawScanBytes sends one SCAN request on a fresh connection to srv and
// returns every byte the server wrote up to and including FrameScanEnd.
func rawScanBytes(t *testing.T, srv *server.Server, transport string, req server.ScanRequest) []byte {
	t.Helper()
	cc := connect(t, srv, transport)
	defer cc.Close()
	cc.SetDeadline(time.Now().Add(10 * time.Second))
	go server.WriteFrame(cc, server.FrameScan, server.EncodeScanRequest(req))
	var raw bytes.Buffer
	r := io.TeeReader(cc, &raw)
	for {
		f, err := server.ReadFrame(r)
		if err != nil {
			t.Fatalf("read frame after %d bytes: %v", raw.Len(), err)
		}
		if f.Type == server.FrameScanEnd {
			return raw.Bytes()
		}
	}
}

// legacyPageFrames is the page-frame encoding as the server assembled it
// before page frames went out as vectors: each frame's page images and
// checksum trailer copied into one buffer, injected corruption applied to
// that buffer in page order, the whole written with WriteFrame.
func legacyPageFrames(storage []byte, ppf int, inj *faults.Injector) []byte {
	var out bytes.Buffer
	n := len(storage) / page.Size
	for off := 0; off < n; off += ppf {
		end := min(off+ppf, n)
		frame := append([]byte(nil), storage[off*page.Size:end*page.Size]...)
		for i := off; i < end; i++ {
			frame = binary.LittleEndian.AppendUint32(frame, page.Checksum(storage[i*page.Size:(i+1)*page.Size]))
		}
		for i := off; i < end; i++ {
			if inj.Should(faults.PageCorrupt) {
				pos := (i-off)*page.Size + int(inj.Intn(faults.PageCorrupt, page.Size))
				frame[pos] ^= byte(1 + inj.Intn(faults.PageCorrupt, 255))
			}
		}
		server.WriteFrame(&out, server.FramePagesCk, frame)
	}
	return out.Bytes()
}

// TestPageFramesByteIdenticalToLegacyEncoding holds the wire invariant for
// vectored page frames: what a scan puts on the connection — clean, and
// with in-flight corruption armed at a fixed seed, on either transport — is
// byte for byte the frames the copying encoder produced, followed by one
// FrameScanEnd.
func TestPageFramesByteIdenticalToLegacyEncoding(t *testing.T) {
	const rows, seed = 20000, 11
	storage := storageBytes(t, rows)
	if n := len(storage) / page.Size; n%16 == 0 {
		t.Fatalf("%d pages fill whole frames; the test wants a short last frame", n)
	}
	clean := legacyPageFrames(storage, 16, nil)
	for _, tc := range []struct {
		name    string
		profile faults.Profile
	}{
		{"clean", nil},
		{"page-corrupt", faults.Profile{faults.PageCorrupt: 0.3}},
	} {
		for _, transport := range transports {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				cfg := server.Config{}
				var want []byte
				if tc.profile != nil {
					cfg.Faults = faults.New(seed, tc.profile)
					// The first scan on a fresh server draws from fork "scan1".
					want = legacyPageFrames(storage, 16, faults.New(seed, tc.profile).Fork("scan1"))
					if bytes.Equal(want, clean) {
						t.Fatal("the armed corruption damaged no page; the case tests nothing")
					}
				} else {
					want = clean
				}
				srv := server.New(cfg)
				if err := srv.Register(testRelation(rows)); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				raw := rawScanBytes(t, srv, transport, server.ScanRequest{Table: "synthetic", Column: "c1"})
				if len(raw) < len(want) || !bytes.Equal(raw[:len(want)], want) {
					t.Fatalf("page frames differ from the legacy encoding (%d bytes on the wire, %d expected before the summary)", len(raw), len(want))
				}
				f, n, err := server.DecodeFrame(raw[len(want):])
				if err != nil || f.Type != server.FrameScanEnd || len(want)+n != len(raw) {
					t.Fatalf("tail after the page frames is not one FrameScanEnd: type %d, %d of %d bytes, err %v",
						f.Type, n, len(raw)-len(want), err)
				}
			})
		}
	}
}

// TestServedScanAllocsUnderPageBytes bounds what a served scan allocates on
// both ends of the wire: page images go out by reference and come in
// through one reused frame buffer, so a few multi-frame scans together
// allocate far less than one copy of the relation.
func TestServedScanAllocsUnderPageBytes(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) { testServedScanAllocs(t, transport) })
	}
}

func testServedScanAllocs(t *testing.T, transport string) {
	const rows, scans = 100000, 4
	relBytes := len(storageBytes(t, rows))
	srv := server.New(server.Config{})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := client.New(connect(t, srv, transport))
	defer c.Close()
	// Warm up: the first scan sizes the client's frame buffer.
	if _, err := c.Scan("synthetic", "", io.Discard); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		if _, err := c.Scan("synthetic", "", io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perScan := int(after.TotalAlloc-before.TotalAlloc) / scans
	t.Logf("%d B allocated per scan of a %d B relation", perScan, relBytes)
	if perScan > relBytes/16 {
		t.Fatalf("a served scan allocates %d B, over 1/16 of the relation's %d page bytes", perScan, relBytes)
	}
}
