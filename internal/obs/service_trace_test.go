package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"vmp/internal/telemetry"
)

func TestWriteServiceTrace(t *testing.T) {
	spans := []telemetry.Span{
		{Track: "job", Name: "queue", Start: 0, Dur: 2 * time.Millisecond},
		{Track: "job", Name: "run", Start: 2 * time.Millisecond, Dur: 10 * time.Millisecond},
		{Track: "store", Name: "put", Start: 5 * time.Millisecond, Dur: 300 * time.Microsecond, Note: "deadbeef"},
		{Track: "cells", Name: "cell-done", Start: 4 * time.Millisecond, Dur: 0},
	}
	cases := []struct {
		name   string
		events []Event
		// simThreads are the sim track names the document must carry
		// besides the service tracks.
		simThreads []string
	}{
		{"single-bus", []Event{
			{Time: 100, Dur: 50, Kind: KindBus, Board: 0},
			{Time: 200, Kind: KindIntr, Board: 1},
		}, []string{"bus", "board0", "board1"}},
		// A hierarchical machine tags bus events with 1+segment and adds
		// link crossings; the served trace names those tracks exactly as
		// WriteTrace does.
		{"multi-bus", []Event{
			{Time: 100, Dur: 50, Kind: KindBus, Board: 0, ASID: 1},
			{Time: 150, Dur: 40, Kind: KindLink, Board: 0},
			{Time: 200, Dur: 50, Kind: KindBus, Board: 2, ASID: 2},
		}, []string{"bus", "bus/seg0", "bus/seg1", "bus/link", "board0", "board2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteServiceTrace(&buf, spans, c.events); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Ph   string          `json:"ph"`
					Tid  int             `json:"tid"`
					Name string          `json:"name"`
					Args json.RawMessage `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
			}

			// Service tracks get tids in [svcTIDBase, boardTIDBase), named
			// svc:<track> and sorted by track name; sim tracks keep their
			// usual tids. Both worlds must be present in the one document.
			wantThreads := map[string]bool{"svc:cells": false, "svc:job": false, "svc:store": false}
			for _, n := range c.simThreads {
				wantThreads[n] = false
			}
			var spanRows, eventRows int
			for _, e := range doc.TraceEvents {
				switch e.Ph {
				case "M":
					if e.Name == "thread_name" {
						var args struct {
							Name string `json:"name"`
						}
						if err := json.Unmarshal(e.Args, &args); err != nil {
							t.Fatal(err)
						}
						if _, ok := wantThreads[args.Name]; ok {
							wantThreads[args.Name] = true
						}
						if strings.HasPrefix(args.Name, "svc:") && (e.Tid < svcTIDBase || e.Tid >= boardTIDBase) {
							t.Errorf("service track %q has tid %d outside [%d,%d)", args.Name, e.Tid, svcTIDBase, boardTIDBase)
						}
					}
				case "X", "i":
					if e.Tid >= svcTIDBase && e.Tid < boardTIDBase {
						spanRows++
					} else {
						eventRows++
					}
				}
			}
			for name, seen := range wantThreads {
				if !seen {
					t.Errorf("missing thread %q in trace", name)
				}
			}
			if spanRows != len(spans) {
				t.Errorf("got %d span rows, want %d", spanRows, len(spans))
			}
			if eventRows != len(c.events) {
				t.Errorf("got %d event rows, want %d", eventRows, len(c.events))
			}
			if !strings.Contains(buf.String(), `"note":"deadbeef"`) {
				t.Error("span note lost in export")
			}
		})
	}
}

func TestWriteServiceTraceSpansOnly(t *testing.T) {
	var buf bytes.Buffer
	spans := []telemetry.Span{{Track: "job", Name: "run", Start: 0, Dur: time.Millisecond}}
	if err := WriteServiceTrace(&buf, spans, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `"name":"bus"`) {
		t.Error("spans-only trace must not invent a bus track")
	}
}
