package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/timeline"
	"repro/wayback"
)

// maxAsofResults bounds the per-generation as-of Results cache. Each entry
// holds an aggregate (stats + timelines), not raw events, so a handful of
// hot cuts is cheap to keep; past the cap the map is dropped wholesale.
const maxAsofResults = 16

// asofKey names one as-of replay: the store generation it answers for and
// the as-of instant in Unix nanoseconds.
type asofKey struct {
	gen uint64
	at  int64
}

// asofResults returns the study Results as of t, recomputing only when the
// (generation, t) pair is new. The underlying AsOf query costs the events
// since the nearest checkpoint, so even a miss is far cheaper than a batch
// run over the full log. asofMu guards only the maps: misses at different
// instants replay in parallel, and concurrent misses at one instant share
// one replay.
func (s *Server) asofResults(t time.Time) (*wayback.Results, uint64, error) {
	gen := s.cfg.Store.Generation()
	key := asofKey{gen, t.UTC().UnixNano()}
	s.asofMu.Lock()
	if s.asofGen != gen || s.asofRes == nil {
		s.asofRes = make(map[int64]*wayback.Results)
		s.asofGen = gen
	}
	if res, ok := s.asofRes[key.at]; ok {
		s.asofMu.Unlock()
		return res, gen, nil
	}
	if f, ok := s.asofFlights[key]; ok {
		s.asofMu.Unlock()
		<-f.done
		return f.val, gen, f.err
	}
	f := &flight[*wayback.Results]{done: make(chan struct{})}
	s.asofFlights[key] = f
	s.asofMu.Unlock()

	v, err := s.cfg.Timeline.AsOf(t)
	if err == nil {
		f.val = s.cfg.Study.ResultsFromView(v)
	}
	f.err = err
	close(f.done)

	s.asofMu.Lock()
	delete(s.asofFlights, key)
	if err == nil && s.asofGen == gen {
		if len(s.asofRes) >= maxAsofResults {
			clear(s.asofRes)
		}
		s.asofRes[key.at] = f.val
	}
	s.asofMu.Unlock()
	return f.val, gen, f.err
}

// serveTimeline is serveCached's sibling for the endpoints that query the
// timeline engine directly (diff, skill) rather than through a Results: same
// generation-keyed response cache, same ETag/304 contract.
func (s *Server) serveTimeline(w http.ResponseWriter, r *http.Request, key string, build func() ([]byte, string, error)) {
	gen := s.cfg.Store.Generation()
	etag := responseETag(gen, key)
	if notModified(r, etag) {
		s.hits.Add(1)
		writeNotModified(w, gen, etag)
		return
	}
	body, ctype, hit, err := s.cachedBody(gen, key, build)
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.write(w, gen, etag, body, ctype)
}

// handleDiff serves the lifecycle delta between two as-of cuts: which CVEs
// appeared, which lifecycle events (V F D P X A) were learned or revised, and
// how attributed event volume grew from ?from= to ?to=.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseDateParam(q.Get("from"))
	if err != nil || from.IsZero() {
		http.Error(w, "diff wants from=DATE (RFC 3339 or YYYY-MM-DD)", http.StatusBadRequest)
		return
	}
	to, err := parseDateParam(q.Get("to"))
	if err != nil || to.IsZero() {
		http.Error(w, "diff wants to=DATE (RFC 3339 or YYYY-MM-DD)", http.StatusBadRequest)
		return
	}
	if to.Before(from) {
		http.Error(w, "diff range is inverted: to precedes from", http.StatusBadRequest)
		return
	}
	key := "diff?from=" + from.UTC().Format(time.RFC3339Nano) + "&to=" + to.UTC().Format(time.RFC3339Nano)
	s.serveTimeline(w, r, key, func() ([]byte, string, error) {
		vf, err := s.cfg.Timeline.AsOf(from)
		if err != nil {
			return nil, "", err
		}
		vt, err := s.cfg.Timeline.AsOf(to)
		if err != nil {
			return nil, "", err
		}
		out := struct {
			Generation uint64             `json:"generation"`
			From       time.Time          `json:"from"`
			To         time.Time          `json:"to"`
			CVEs       []timeline.CVEDiff `json:"cves"`
		}{
			Generation: s.cfg.Store.Generation(),
			From:       from.UTC(), To: to.UTC(),
			CVEs: timeline.DiffTimelines(vf.Timelines(), vt.Timelines()),
		}
		if out.CVEs == nil {
			out.CVEs = []timeline.CVEDiff{}
		}
		body, err := json.Marshal(out)
		return body, "application/json", err
	})
}

// handleSkill serves the coordination-skill score sampled over time: one
// as-of evaluation of the paper's disclosure desiderata per step from ?from=
// to ?to= (step_days, default 30).
func (s *Server) handleSkill(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseDateParam(q.Get("from"))
	if err != nil || from.IsZero() {
		http.Error(w, "skill wants from=DATE (RFC 3339 or YYYY-MM-DD)", http.StatusBadRequest)
		return
	}
	to, err := parseDateParam(q.Get("to"))
	if err != nil || to.IsZero() {
		http.Error(w, "skill wants to=DATE (RFC 3339 or YYYY-MM-DD)", http.StatusBadRequest)
		return
	}
	if to.Before(from) {
		http.Error(w, "skill range is inverted: to precedes from", http.StatusBadRequest)
		return
	}
	stepDays := 30
	if v := q.Get("step_days"); v != "" {
		stepDays, err = strconv.Atoi(v)
		if err != nil || stepDays <= 0 {
			http.Error(w, "bad step_days: want a positive integer", http.StatusBadRequest)
			return
		}
	}
	key := fmt.Sprintf("skill?from=%s&to=%s&step_days=%d",
		from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano), stepDays)
	s.serveTimeline(w, r, key, func() ([]byte, string, error) {
		pts, err := s.cfg.Timeline.SkillSeries(from, to, time.Duration(stepDays)*24*time.Hour)
		if err != nil {
			return nil, "", err
		}
		out := struct {
			Generation uint64                `json:"generation"`
			StepDays   int                   `json:"step_days"`
			Points     []timeline.SkillPoint `json:"points"`
		}{Generation: s.cfg.Store.Generation(), StepDays: stepDays, Points: pts}
		if out.Points == nil {
			out.Points = []timeline.SkillPoint{}
		}
		body, err := json.Marshal(out)
		return body, "application/json", err
	})
}
