// Command h2proxy is a live TCP-level attack proxy for HTTP/2
// (prior-knowledge cleartext) connections: the real-network analogue
// of the paper's compromised gateway. It forwards a connection to the
// target server while
//
//   - spacing out client request frames (the paper's jitter knob),
//   - throttling the server→client byte rate (the bandwidth knob),
//   - stalling the response direction for a window after the Nth
//     request (the TCP-stream-safe analogue of the targeted-drop
//     phase), and
//   - printing the per-stream interleaving pattern it observes, which
//     is exactly the view a size side-channel adversary has.
//
// A TCP proxy cannot drop individual bytes of a stream without
// corrupting it, so the drop phase is modelled as a forwarding stall;
// see DESIGN.md.
//
// Usage:
//
//	h2proxy -listen 127.0.0.1:9443 -target 127.0.0.1:8443 \
//	        -spacing 50ms -throttle 10000000 -stall-at 6 -stall-for 3s -monitor
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/h2"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

// run registers the command's flags on fs, parses args, and relays
// connections until accepting fails, returning the exit code.
func run(fs *flag.FlagSet, args []string) int {
	var (
		listen   = fs.String("listen", "127.0.0.1:9443", "listen address")
		target   = fs.String("target", "127.0.0.1:8443", "upstream server address")
		spacing  = fs.Duration("spacing", 0, "minimum spacing between forwarded client requests")
		throttle = fs.Int64("throttle", 0, "server->client byte rate limit (bits/sec, 0 = off)")
		stallAt  = fs.Int("stall-at", 0, "stall responses after the Nth request (0 = off)")
		stallFor = fs.Duration("stall-for", 3*time.Second, "response stall duration")
		monitor  = fs.Bool("monitor", false, "print observed frames per direction")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2proxy: %v\n", err)
		return 1
	}
	log.Printf("h2proxy: %s -> %s (spacing=%v throttle=%d stall-at=%d)",
		ln.Addr(), *target, *spacing, *throttle, *stallAt)
	for {
		cc, err := ln.Accept()
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2proxy: accept: %v\n", err)
			return 1
		}
		p := &proxyConn{
			client:   cc,
			target:   *target,
			spacing:  *spacing,
			throttle: *throttle,
			stallAt:  *stallAt,
			stallFor: *stallFor,
			monitor:  *monitor,
		}
		go p.run()
	}
}

// proxyConn relays one client connection through the attack schedule.
type proxyConn struct {
	client   net.Conn
	target   string
	spacing  time.Duration
	throttle int64
	stallAt  int
	stallFor time.Duration
	monitor  bool

	mu        sync.Mutex
	requests  int
	stallGate chan struct{} // closed when the response stall begins
}

func (p *proxyConn) run() {
	defer p.client.Close() //nolint:errcheck // teardown
	sc, err := net.Dial("tcp", p.target)
	if err != nil {
		log.Printf("h2proxy: dial %s: %v", p.target, err)
		return
	}
	defer sc.Close() //nolint:errcheck // teardown
	log.Printf("h2proxy: relaying %s", p.client.RemoteAddr())

	p.stallGate = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.relayRequests(sc, p.client)
		_ = sc.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
	}()
	go func() {
		defer wg.Done()
		p.relayResponses(p.client, sc)
		_ = p.client.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
	}()
	wg.Wait()
}

// relayRequests forwards client bytes through a RequestPacer, which
// relays them unchanged, spaces out request HEADERS, and feeds the
// stall trigger.
func (p *proxyConn) relayRequests(dst io.Writer, src io.Reader) {
	pacer := h2.NewRequestPacer(dst, p.spacing, true)
	pacer.OnFrame = func(f h2.Frame) {
		switch fv := f.(type) {
		case *h2.HeadersFrame:
			p.onRequest()
			if p.monitor {
				log.Printf("  c->s HEADERS stream=%d (%d bytes)", fv.StreamID, len(fv.BlockFragment))
			}
		case *h2.RSTStreamFrame:
			if p.monitor {
				log.Printf("  c->s RST_STREAM stream=%d %v", fv.StreamID, fv.Code)
			}
		}
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := pacer.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// onRequest counts requests and arms the response stall.
func (p *proxyConn) onRequest() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if p.stallAt > 0 && p.requests == p.stallAt {
		close(p.stallGate)
	}
}

// relayResponses forwards server bytes under the throttle, pausing
// for the stall window when the gate fires.
func (p *proxyConn) relayResponses(dst io.Writer, src io.Reader) {
	var scanner h2.FrameScanner
	buf := make([]byte, 16<<10)
	stalled := false
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if !stalled {
				select {
				case <-p.stallGate:
					stalled = true
					log.Printf("h2proxy: stalling responses for %v (request %d seen)", p.stallFor, p.stallAt)
					time.Sleep(p.stallFor)
				default:
				}
			}
			if p.throttle > 0 {
				// Token-bucket-free approximation: sleep for the
				// serialization time of the chunk at the target rate.
				time.Sleep(time.Duration(int64(n) * 8 * int64(time.Second) / p.throttle))
			}
			if p.monitor {
				if frames, ferr := scanner.Feed(chunk); ferr == nil {
					for _, f := range frames {
						if d, ok := f.(*h2.DataFrame); ok {
							marker := ""
							if d.EndStream {
								marker = " END"
							}
							log.Printf("  s->c DATA stream=%d len=%d%s", d.StreamID, len(d.Data), marker)
						}
					}
				}
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
