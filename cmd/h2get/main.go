// Command h2get fetches objects from a prior-knowledge cleartext
// HTTP/2 server over real TCP, using net/http on a single connection.
// With -burst it issues every request at once from its own goroutine,
// so the server multiplexes the responses.
//
// Usage:
//
//	h2get -addr 127.0.0.1:8443 /results/2020-presidential-quiz
//	h2get -addr 127.0.0.1:8443 -burst /o1 /o2 /o3
//	h2get -addr 127.0.0.1:8443 -survey   # the full survey page load
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/website"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

// run registers the command's flags on fs, parses args, and fetches
// the requested paths, returning the exit code.
func run(fs *flag.FlagSet, args []string) int {
	var (
		addr   = fs.String("addr", "127.0.0.1:8443", "server address")
		burst  = fs.Bool("burst", false, "issue all requests at once, each from its own goroutine")
		survey = fs.Bool("survey", false, "fetch the whole synthetic survey page")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	paths := fs.Args()
	if *survey {
		site := website.Survey(website.IdentityPermutation())
		for _, spec := range site.Schedule {
			obj, _ := site.Object(spec.ObjectID)
			paths = append(paths, obj.Path)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "h2get: no paths given (or use -survey)")
		fs.Usage()
		return 2
	}

	// HTTP/2 only, without TLS, and one connection: concurrent first
	// requests would otherwise each dial their own.
	tr := &http.Transport{MaxConnsPerHost: 1, Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}

	start := time.Now()
	if *burst {
		resps := make([]response, len(paths))
		var wg sync.WaitGroup
		for i, p := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i] = get(cl, *addr, p)
			}()
		}
		wg.Wait()
		for i, r := range resps {
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "h2get: %s: %v\n", paths[i], r.err)
				return 1
			}
			fmt.Printf("%-40s %d  %6d bytes\n", paths[i], r.status, r.n)
		}
		fmt.Println("(no HTTP/2 stream IDs: net/http does not expose them; h2proxy -monitor prints them)")
	} else {
		for _, p := range paths {
			t0 := time.Now()
			r := get(cl, *addr, p)
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "h2get: %s: %v\n", p, r.err)
				return 1
			}
			fmt.Printf("%-40s %d  %6d bytes  %v\n", p, r.status, r.n, time.Since(t0).Round(time.Microsecond))
		}
	}
	fmt.Printf("total: %d objects in %v\n", len(paths), time.Since(start).Round(time.Millisecond))
	return 0
}

// response is one fetched object: its status and body length.
type response struct {
	status int
	n      int64
	err    error
}

// get fetches path from addr and counts the body bytes.
func get(cl *http.Client, addr, path string) response {
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close() //nolint:errcheck // body fully read below
	n, err := io.Copy(io.Discard, resp.Body)
	return response{status: resp.StatusCode, n: n, err: err}
}
