package main

// The fleet-operations CLI face: `status` renders a running
// controller's /status document as tables, `enroll` drives the token
// mint/list/revoke flow over the same ops HTTP endpoint.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"secureangle/internal/netproto"
)

// defaultOpsAddr is where `status` and `enroll` look for a controller's
// ops endpoint when -ops is not given, matching the `serve -ops` docs.
const defaultOpsAddr = "127.0.0.1:7118"

func opsTarget(addr string) string {
	if addr == "" {
		return defaultOpsAddr
	}
	return addr
}

func opsGet(addr, path string, out any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runStatus fetches /status from a controller's ops endpoint and
// renders the operator's view: fusion and defense counters, journal
// position, per-AP health, and the live threat table. watch > 0
// re-fetches and re-renders every watch seconds until interrupted
// (`secureangle status -watch 2`, the poor operator's dashboard).
func runStatus(addr string, watch int) error {
	if watch <= 0 {
		return renderStatus(addr)
	}
	for {
		// Clear the screen and home the cursor between renders, like
		// watch(1); a fetch error is printed and retried, not fatal —
		// the controller may be mid-restart.
		fmt.Print("\x1b[2J\x1b[H")
		if err := renderStatus(addr); err != nil {
			fmt.Println(err)
		}
		time.Sleep(time.Duration(watch) * time.Second)
	}
}

func renderStatus(addr string) error {
	var st netproto.Status
	if err := opsGet(addr, "/status", &st); err != nil {
		return fmt.Errorf("is the controller running with -ops %s? %w", addr, err)
	}
	auth := "optional"
	if st.AuthRequired {
		auth = "required"
	}
	fmt.Printf("controller at %s — protocol v%d, auth %s, %d enrolled AP(s)\n",
		addr, st.Proto, auth, len(st.Enrolled))

	f := st.Fusion
	fmt.Printf("\nfusion: %d ingested, %d decisions, %d dup dropped, %d forced timeouts; %d clients, %d pending, %d shards\n",
		f.Ingested, f.Decisions, f.DupDropped, f.ForcedTimeouts, f.Clients, f.Pending, len(f.Shards))
	fmt.Printf("        expired %d pending; evicted %d pending, %d clients; %d fuse errors\n",
		f.PendingExpired, f.PendingEvicted, f.ClientsEvicted, f.FuseErrors)

	d := st.Defense
	fmt.Printf("defense: verdicts %d spoof / %d fence / %d track; %d quarantines, %d null-steers, %d directives (%d acked), %d releases; clients %d allow / %d monitor / %d quarantine\n",
		d.SpoofVerdicts, d.FenceVerdicts, d.TrackVerdicts, d.Quarantines, d.NullSteers,
		d.Directives, st.DirectiveAcks, d.Releases, d.Allow, d.Monitor, d.Quarantine)

	if st.Journal != nil {
		j := st.Journal
		snap := "never"
		if !j.SnapshotAt.IsZero() {
			snap = fmt.Sprintf("%s ago (LSN %d)", time.Since(j.SnapshotAt).Truncate(time.Second), j.SnapshotLSN)
		}
		fmt.Printf("journal: LSN %d, %d appends (%d bytes), %d fsyncs, %d segments, snapshot %s\n",
			j.LSN, j.Appends, j.AppendedBytes, j.Fsyncs, j.Segments, snap)
	} else {
		fmt.Println("journal: off")
	}

	if st.Partitions > 1 {
		fmt.Printf("partitions: %d (MAC-range sharded core)\n", st.Partitions)
		if len(st.JournalPartitions) > 1 {
			fmt.Printf("  %-4s %10s %10s %9s %8s %12s\n", "part", "LSN", "appends", "fsyncs", "segments", "snapshot LSN")
			for i, p := range st.JournalPartitions {
				fmt.Printf("  p%-3d %10d %10d %9d %8d %12d\n",
					i, p.LSN, p.Appends, p.Fsyncs, p.Segments, p.SnapshotLSN)
			}
		}
	}

	if len(st.Replication) > 0 {
		fmt.Println("\nreplicas:")
		for _, r := range st.Replication {
			name := r.Name
			if name == "" {
				name = "(standby)"
			}
			fmt.Printf("  %-14s max lag %d\n", name, r.MaxLag)
			for _, p := range r.Partitions {
				fmt.Printf("    p%-3d sent LSN %d, acked LSN %d, lag %d\n",
					p.Partition, p.SentLSN, p.AckedLSN, p.Lag)
			}
		}
	}

	if len(st.APs) == 0 {
		fmt.Println("\nno connected APs")
	} else {
		fmt.Printf("\n%-14s %5s %8s %8s %6s %6s %10s %12s\n",
			"AP", "queue", "frames", "reports", "acks", "role", "last seen", "ack latency")
		for _, h := range st.APs {
			role := "ap"
			if h.Observer {
				role = "obs"
			}
			lat := "-"
			if h.AckLatency > 0 {
				lat = h.AckLatency.Truncate(time.Microsecond).String()
			}
			fmt.Printf("%-14s %5d %8d %8d %6d %6s %10s %12s\n",
				h.Name, h.QueueDepth, h.Frames, h.Reports, h.Acks, role,
				time.Since(h.LastSeen).Truncate(time.Millisecond), lat)
		}
	}
	if st.SendOverflows > 0 {
		fmt.Printf("sessions closed for an unsent backlog past the cap: %d\n", st.SendOverflows)
	}

	if len(st.Threats) == 0 {
		fmt.Println("no active threats")
	} else {
		fmt.Printf("\n%-18s %-10s %-10s %6s %-10s %s\n", "MAC", "state", "action", "score", "by", "age")
		for _, th := range st.Threats {
			fmt.Printf("%-18s %-10s %-10s %6.2f %-10s %s\n",
				th.MAC, th.State, th.Action, th.Score, th.LastAP,
				time.Since(th.Updated).Truncate(time.Millisecond))
		}
	}
	return nil
}

// runEnroll drives the controller's token admin endpoint. With no name
// it lists enrolled APs; with a name it mints (or, with -revoke,
// revokes) that AP's token. Re-enrolling an existing name rotates the
// token: the old one stops validating immediately.
func runEnroll(addr, name string, revoke bool) error {
	client := &http.Client{Timeout: 5 * time.Second}
	if name == "" {
		if revoke {
			return fmt.Errorf("enroll -revoke needs an AP name")
		}
		var listed struct{ Enrolled []string }
		if err := opsGet(addr, "/enroll", &listed); err != nil {
			return fmt.Errorf("is the controller running with -ops %s? %w", addr, err)
		}
		if len(listed.Enrolled) == 0 {
			fmt.Println("no enrolled APs")
			return nil
		}
		for _, n := range listed.Enrolled {
			fmt.Println(n)
		}
		return nil
	}
	q := url.Values{"name": {name}}
	if revoke {
		q.Set("revoke", "1")
	}
	resp, err := client.Post("http://"+addr+"/enroll?"+q.Encode(), "", nil)
	if err != nil {
		return fmt.Errorf("is the controller running with -ops %s? %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("enroll: %s: %s", resp.Status, body)
	}
	if revoke {
		fmt.Printf("revoked %s; its next handshake will be rejected\n", name)
		return nil
	}
	var minted struct{ Name, Token string }
	if err := json.NewDecoder(resp.Body).Decode(&minted); err != nil {
		return err
	}
	fmt.Printf("enrolled %s\ntoken: %s\n\nstart the AP agent with this token (Hello.Token, or tracks/defense -token).\nRe-running enroll rotates it; `enroll -revoke %s` revokes it.\n",
		minted.Name, minted.Token, minted.Name)
	return nil
}
