package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// runParts measures an untraced run in parts child processes of this
// binary. Each sets the workload up afresh and measures seconds/parts; the
// run reports the median of each end-to-end metric across the parts, so
// setup_s is the median of parts set-ups. A key-value run instead pools
// the windows of all parts and takes its figures from the least stolen,
// so that outside load during one part does not move the result.
func runParts(a args, parts int) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	per := a.seconds / float64(parts)
	var results []resultLine
	var details []json.RawMessage
	for i := 0; i < parts; i++ {
		res, detail, err := runPart(ctx, a, i, per)
		if err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		results = append(results, *res)
		details = append(details, detail)
	}
	combined := combineParts(results)
	detail := map[string]any{"workload": a.workload, "seconds": a.seconds, "parts": details}
	if ws := poolWindows(details); ws != nil {
		figures, pooled := map[string]float64{}, map[string]any{}
		windowFigures(ws, figures, pooled)
		for name, v := range figures {
			combined.Metrics[name] = metricOut{Value: v, Unit: combined.Metrics[name].Unit}
		}
		detail["pooled"] = pooled
	}
	if !sameImprovement(details) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed: the parts' tuning sessions improved by different factors")
		combined.Correct = false
	}
	return printResult(detail, combined)
}

// poolWindows gathers the windows every part measured, or returns nil when
// a part measured none.
func poolWindows(details []json.RawMessage) []winStat {
	var ws []winStat
	for _, d := range details {
		var x struct {
			Windows []winStat `json:"windows"`
		}
		if json.Unmarshal(d, &x) != nil || len(x.Windows) == 0 {
			return nil
		}
		ws = append(ws, x.Windows...)
	}
	return ws
}

// sameImprovement reports whether every part that ran a tuning session
// found the same improvement factor, as a fixed seed must.
func sameImprovement(details []json.RawMessage) bool {
	var first *float64
	for _, d := range details {
		var x struct {
			Improvement *float64 `json:"improvement_x"`
		}
		if json.Unmarshal(d, &x) != nil || x.Improvement == nil {
			continue
		}
		if first == nil {
			first = x.Improvement
		} else if *x.Improvement != *first {
			return false
		}
	}
	return true
}

// runPart runs one part and returns its result and detail lines.
func runPart(ctx context.Context, a args, i int, seconds float64) (*resultLine, json.RawMessage, error) {
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-workload", a.workload,
		"-seed", strconv.FormatInt(a.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-kvserver", a.kvBin, "-workdir", a.workdir, "-root", a.root,
		"-part", strconv.Itoa(i))
	cmd.Stderr = os.Stderr
	// A process group of its own, so a timeout also stops the kvserver the
	// part started.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "detail: ") {
		return nil, nil, errors.New("no result printed")
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	return &res, json.RawMessage(strings.TrimPrefix(lines[len(lines)-2], "detail: ")), nil
}

// combineParts merges the parts of a run: it is correct when every part
// is, its counts add up, and each metric is the median over the parts.
func combineParts(parts []resultLine) *resultLine {
	out := &resultLine{Correct: true, Metrics: map[string]metricOut{}}
	for _, p := range parts {
		out.Correct = out.Correct && p.Correct
		out.Attempted += p.Attempted
		out.Failed += p.Failed
	}
	for name, m := range parts[0].Metrics {
		var vs []float64
		for _, p := range parts {
			vs = append(vs, p.Metrics[name].Value)
		}
		out.Metrics[name] = metricOut{Value: median(vs), Unit: m.Unit}
	}
	return out
}
