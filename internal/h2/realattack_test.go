package h2

import (
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestRealNetworkSerializationAttack is the end-to-end live-network
// version of the paper's core claim, against real loopback TCP with
// net/http's prior-knowledge cleartext HTTP/2 on both ends: with
// back-to-back requests the per-stream frames interleave and
// delimiter-based size recovery fails; with the pacer spacing the
// requests, every object size falls out exactly.
func TestRealNetworkSerializationAttack(t *testing.T) {
	sizes := map[string]int{"/a": 5200, "/b": 9900, "/c": 14100}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, ok := sizes[r.URL.Path]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		// One flush per 1,400-byte slice: each slice is one DATA frame.
		body := make([]byte, n)
		for off := 0; off < len(body); off += 1400 {
			if _, err := w.Write(body[off:min(off+1400, len(body))]); err != nil {
				return
			}
			w.(http.Flusher).Flush()
			time.Sleep(150 * time.Microsecond) // lets concurrent streams interleave
		}
	})
	srv := &http.Server{Handler: h, Protocols: new(http.Protocols)}
	srv.Protocols.SetUnencryptedHTTP2(true)
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(originLn)                //nolint:errcheck // ends at Close
	t.Cleanup(func() { _ = srv.Close() }) //nolint:errcheck // teardown
	origin := originLn.Addr().String()

	paths := []string{"/c", "/b", "/a"}

	recovered := func(spacing time.Duration) map[int]bool {
		frames := fetchViaObservingProxy(t, origin, paths, spacing)
		// Delimiter attack: sum DATA lengths until a sub-full frame.
		found := map[int]bool{}
		run := 0
		for _, f := range frames {
			run += f.size
			if f.size < 1400 {
				found[run] = true
				run = 0
			}
		}
		return found
	}

	spaced := recovered(200 * time.Millisecond)
	for path, n := range sizes {
		if !spaced[n] {
			t.Errorf("spaced attack missed %s (%d bytes); recovered sums: %v", path, n, spaced)
		}
	}

	// The negative control: unpaced, the streams interleave and at
	// least one size is lost.
	burst := recovered(0)
	missed := 0
	for _, n := range sizes {
		if !burst[n] {
			missed++
		}
	}
	if missed == 0 {
		t.Errorf("unpaced requests recovered every size %v; the streams did not interleave", burst)
	}
}

type obsFrame struct {
	stream uint32
	size   int
}

// fetchViaObservingProxy relays one connection through a pacer proxy,
// fetches paths concurrently over it, and returns the server→client
// DATA frames in wire order.
func fetchViaObservingProxy(t *testing.T, origin string, paths []string, spacing time.Duration) []obsFrame {
	t.Helper()
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu  sync.Mutex
		obs []obsFrame
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cc, aerr := proxyLn.Accept()
		if aerr != nil {
			return
		}
		defer cc.Close() //nolint:errcheck // teardown
		sc, derr := net.Dial("tcp", origin)
		if derr != nil {
			return
		}
		defer sc.Close() //nolint:errcheck // teardown
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer sc.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
			relay(NewRequestPacer(sc, spacing, true), cc, func([]byte) {})
		}()
		go func() {
			defer wg.Done()
			defer cc.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
			var scanner FrameScanner
			relay(cc, sc, func(b []byte) {
				frames, _ := scanner.Feed(b)
				mu.Lock()
				defer mu.Unlock()
				for _, f := range frames {
					if d, ok := f.(*DataFrame); ok && len(d.Data) > 0 {
						obs = append(obs, obsFrame{d.StreamID, len(d.Data)})
					}
				}
			})
		}()
		wg.Wait()
	}()

	// HTTP/2 only, without TLS, on one connection: the proxy accepts
	// just one, and concurrent first requests would otherwise each
	// dial their own.
	tr := &http.Transport{MaxConnsPerHost: 1, Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	cl := &http.Client{Transport: tr}
	errs := make(chan error, len(paths))
	for _, p := range paths {
		go func() {
			resp, err := cl.Get("http://" + proxyLn.Addr().String() + p)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close() //nolint:errcheck // body fully read
			}
			errs <- err
		}()
	}
	for range paths {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	tr.CloseIdleConnections()
	_ = proxyLn.Close() //nolint:errcheck // ends a pending Accept
	<-done
	mu.Lock()
	defer mu.Unlock()
	return obs
}

// relay copies src to dst until either fails, showing each chunk to
// observe first.
func relay(dst io.Writer, src io.Reader, observe func([]byte)) {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			observe(buf[:n])
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}
