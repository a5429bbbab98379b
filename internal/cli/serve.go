package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	"aquila"
)

// ReplayServed replays an update script through the serving layer. It accepts
// the ReplayUpdates format — including `- u v` delete ops, which publish
// epochs whose graphs have shrunk — plus two serve-only directives that
// exercise snapshot isolation from the command line:
//
//	pin        pin the current epoch's snapshot
//	?? u v     answer "are u and v connected?" from the pinned snapshot
//	           (the epoch it was pinned at, regardless of later batches)
//
// `? u v` answers from the live epoch, as in ReplayUpdates. Without a prior
// pin, `??` uses the epoch-0 snapshot. Pinned snapshots are immutable: a
// pinned epoch still answers from its own graph after later deletions.
func ReplayServed(srv *aquila.Server, r io.Reader, batchSize int) (string, error) {
	ctx := context.Background()
	var (
		out     strings.Builder
		staged  []aquila.Update
		hasDel  bool
		batchNo int
	)
	pinned := srv.Acquire()
	n := pinned.NumVertices()
	flush := func() error {
		if len(staged) == 0 {
			return nil
		}
		var res *aquila.ApplyResult
		var err error
		if hasDel {
			res, err = srv.ApplyUpdates(staged)
		} else {
			edges := make([]aquila.Edge, len(staged))
			for i, up := range staged {
				edges[i] = aquila.Edge{U: up.U, V: up.V}
			}
			res, err = srv.Apply(edges)
		}
		if err != nil {
			return err
		}
		batchNo++
		if hasDel {
			fmt.Fprintf(&out, "batch %d -> epoch %d: %d ops in, %d new, %d deleted, %d merges, %d splits, %d components",
				batchNo, srv.Epoch(), len(staged), res.NewEdges, res.DeletedEdges, res.Merged, res.Split, res.Components)
		} else {
			fmt.Fprintf(&out, "batch %d -> epoch %d: %d edges in, %d new, %d merges, %d components",
				batchNo, srv.Epoch(), len(staged), res.NewEdges, res.Merged, res.Components)
		}
		if res.Rebuilt {
			out.WriteString(" (rebuilt)")
		}
		out.WriteByte('\n')
		staged = staged[:0]
		hasDel = false
		return nil
	}
	answer := func(sn *aquila.Snapshot, u, v aquila.V, label string) error {
		ok, err := sn.Connected(ctx, u, v)
		if err != nil {
			return serveErr(err)
		}
		fmt.Fprintf(&out, "%s(%d, %d) @epoch %d = %v\n", label, u, v, sn.Epoch(), ok)
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || text == "---":
			if err := flush(); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
		case strings.HasPrefix(text, "#"):
			// comment
		case text == "pin":
			if err := flush(); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			pinned = srv.Acquire()
			fmt.Fprintf(&out, "pinned epoch %d\n", pinned.Epoch())
		case strings.HasPrefix(text, "??"):
			u, v, err := parsePair(strings.TrimSpace(strings.TrimPrefix(text, "??")))
			if err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			if int(u) >= n || int(v) >= n {
				return "", fmt.Errorf("line %d: vertex out of range [0,%d)", line, n)
			}
			// Deliberately no flush: the pinned snapshot answers as of its
			// epoch whatever has been staged or applied since.
			if err := answer(pinned, u, v, "pinned connected"); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
		case strings.HasPrefix(text, "?"):
			u, v, err := parsePair(strings.TrimSpace(strings.TrimPrefix(text, "?")))
			if err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			if int(u) >= n || int(v) >= n {
				return "", fmt.Errorf("line %d: vertex out of range [0,%d)", line, n)
			}
			if err := flush(); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			if err := answer(srv.Acquire(), u, v, "connected"); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
		case strings.HasPrefix(text, "-"):
			// "---" (and blank) matched above, so this is a delete op.
			u, v, err := parsePair(strings.TrimSpace(strings.TrimPrefix(text, "-")))
			if err != nil {
				return "", fmt.Errorf("line %d: bad delete op: %v", line, err)
			}
			if int(u) >= n || int(v) >= n {
				return "", fmt.Errorf("line %d: bad delete op: vertex out of range [0,%d)", line, n)
			}
			staged = append(staged, aquila.Delete(u, v))
			hasDel = true
			if batchSize > 0 && len(staged) >= batchSize {
				if err := flush(); err != nil {
					return "", fmt.Errorf("line %d: %v", line, err)
				}
			}
		default:
			u, v, err := parsePair(text)
			if err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			staged = append(staged, aquila.Insert(u, v))
			if batchSize > 0 && len(staged) >= batchSize {
				if err := flush(); err != nil {
					return "", fmt.Errorf("line %d: %v", line, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if err := flush(); err != nil {
		return "", err
	}
	return strings.TrimRight(out.String(), "\n"), nil
}
