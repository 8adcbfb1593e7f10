// Command h2serve serves the synthetic survey website over real TCP
// as prior-knowledge cleartext HTTP/2, using net/http. Pair it with
// h2get and h2proxy to run the multiplexing-serialization attack
// against live connections.
//
// Each response body is written in -chunk byte slices with a flush
// after each one, so every slice leaves as one DATA frame.
//
// Usage:
//
//	h2serve -addr :8443 [-chunk 1400] [-verbose]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"

	"repro/internal/website"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

// run registers the command's flags on fs, parses args, and serves
// until the listener fails, returning the exit code.
func run(fs *flag.FlagSet, args []string) int {
	var (
		addr    = fs.String("addr", "127.0.0.1:8443", "listen address")
		chunk   = fs.Int("chunk", 1400, "DATA frame chunk size (smaller = more interleaving)")
		verbose = fs.Bool("verbose", false, "log every request")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *chunk <= 0 {
		fmt.Fprintln(os.Stderr, "h2serve: -chunk must be positive")
		return 2
	}

	site := website.Survey(website.IdentityPermutation())
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obj, ok := site.ObjectByPath(r.URL.Path)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		if *verbose {
			log.Printf("%s %s -> %d bytes", r.Method, r.URL.Path, obj.Size)
		}
		w.Header().Set("content-type", contentType(obj))
		w.Header().Set("content-length", strconv.Itoa(obj.Size))
		body := make([]byte, obj.Size)
		for i := range body {
			body[i] = byte(obj.ID + i)
		}
		flusher := w.(http.Flusher)
		for off := 0; off < len(body); off += *chunk {
			if _, err := w.Write(body[off:min(off+*chunk, len(body))]); err != nil {
				return
			}
			flusher.Flush()
		}
	})

	srv := &http.Server{Handler: handler, Protocols: new(http.Protocols)}
	srv.Protocols.SetUnencryptedHTTP2(true)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2serve: %v\n", err)
		return 1
	}
	log.Printf("h2serve: serving %s (%d objects) on %s", site.Name, len(site.Objects), ln.Addr())
	if *verbose {
		log.Printf("h2serve: request logs carry no HTTP/2 stream IDs (net/http does not expose them; h2proxy -monitor prints them)")
	}
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "h2serve: %v\n", err)
		return 1
	}
	return 0
}

func contentType(o website.Object) string {
	switch o.Kind {
	case website.KindHTML:
		return "text/html"
	case website.KindScript:
		return "application/javascript"
	case website.KindStyle:
		return "text/css"
	case website.KindImage:
		return "image/png"
	default:
		return "application/octet-stream"
	}
}
