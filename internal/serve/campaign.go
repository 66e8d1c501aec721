package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tvsched/internal/campaign"
	"tvsched/internal/obs"
	"tvsched/internal/obs/span"
)

// CampaignStatusSchema tags the status document POST /v1/campaign and
// GET /v1/campaign/{id} answer with.
const CampaignStatusSchema = "tvsched/campaign-status/v1"

// errCampaignsDisabled reports a campaign request against a server started
// without a campaign directory — there is nowhere to journal, so the resume
// contract cannot be honoured.
var errCampaignsDisabled = errors.New("campaign API disabled: server started without a campaign directory")

// The campaign lifecycle states a status answer reports. A campaign is
// "running" while its executor walks cells, "done" when every cell is
// journaled (individual cells may still have failed — see the error count),
// "suspended" when the server shut down (or the run was canceled) with cells
// pending — the journal holds the finished prefix and a re-POST or restart
// resumes it — and "failed" when the campaign machinery itself broke.
const (
	campaignRunning   = "running"
	campaignDone      = "done"
	campaignSuspended = "suspended"
	campaignFailed    = "failed"
)

// campaignStatus is the status document for one campaign.
type campaignStatus struct {
	Schema string `json:"schema"`
	// ID is the plan hash — the campaign's identity and its journal's name.
	ID    string `json:"id"`
	State string `json:"state"`
	Tag   string `json:"tag,omitempty"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
	// Resumed is how many cells the current run replayed from the journal
	// instead of executing.
	Resumed int    `json:"resumed"`
	Error   string `json:"error,omitempty"`
	// Progress is a live tvsched/progress/v1 heartbeat — the same record a
	// progress-enabled sweep stream interleaves.
	Progress *campaign.ProgressLine `json:"progress"`
}

// campaignRun is one admitted campaign: the plan, its journal, live progress
// accounting, and the lifecycle state the status endpoint reports.
type campaignRun struct {
	id     string
	plan   *campaign.Plan
	j      *campaign.Journal
	prog   *campaign.Progress
	lanes  int
	start  time.Time
	cancel func()
	done   chan struct{} // closed when the executor goroutine returns

	mu     sync.Mutex
	state  string
	errMsg string
}

// status renders the campaign's status document.
func (c *campaignRun) status() campaignStatus {
	c.mu.Lock()
	state, errMsg := c.state, c.errMsg
	c.mu.Unlock()
	done, resumed, _ := c.prog.Snapshot()
	return campaignStatus{
		Schema:   CampaignStatusSchema,
		ID:       c.id,
		State:    state,
		Tag:      c.plan.Spec().Tag,
		Total:    c.plan.Total(),
		Done:     done,
		Resumed:  resumed,
		Error:    errMsg,
		Progress: c.prog.Line(c.start, c.lanes),
	}
}

// journalPath is where the plan's journal lives: the plan hash is both the
// campaign id and the file name, so a re-POST of the same spec finds its
// journal with no registry.
func (s *Server) journalPath(plan *campaign.Plan) string {
	return filepath.Join(s.cfg.CampaignDir, plan.Hash()+".tvcj")
}

// startCampaign admits one campaign, idempotently by plan hash: an already
// running (or finished) campaign is returned as-is, a suspended or failed one
// is relaunched on its journal, and an unknown one opens (or resumes) its
// journal and starts executing. created reports whether this call launched an
// executor.
func (s *Server) startCampaign(plan *campaign.Plan) (*campaignRun, bool, error) {
	id := plan.Hash()
	s.campMu.Lock()
	defer s.campMu.Unlock()
	if c, ok := s.campaigns[id]; ok {
		c.mu.Lock()
		state := c.state
		c.mu.Unlock()
		if state == campaignRunning || state == campaignDone {
			return c, false, nil
		}
		// Suspended or failed: relaunch on the same journal. The old run's
		// executor has returned, so its journal handle is safe to retire.
		_ = c.j.Close()
	}
	j, err := campaign.OpenJournal(s.journalPath(plan), plan)
	if err != nil {
		return nil, false, err
	}
	return s.launchLocked(plan, j), true, nil
}

// launchLocked registers and starts one campaign executor. Callers hold
// s.campMu; the journal is owned by the run from here on.
func (s *Server) launchLocked(plan *campaign.Plan, j *campaign.Journal) *campaignRun {
	c := &campaignRun{
		id:    plan.Hash(),
		plan:  plan,
		j:     j,
		prog:  campaign.NewProgress(plan.Total()),
		lanes: s.cfg.Workers,
		start: time.Now(),
		done:  make(chan struct{}),
		state: campaignRunning,
	}
	s.campaigns[c.id] = c
	event := obs.CampaignStarted
	if j.DoneCount() > 0 {
		event = obs.CampaignResumed
	}
	s.sm.CampaignEvent(event)
	s.sm.AddCampaignsActive(1)
	s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "campaign "+event.String(),
		slog.String("campaign", c.id),
		slog.Int("cells", plan.Total()),
		slog.Int("journaled", j.DoneCount()),
	)
	go s.runCampaign(c)
	return c
}

// runCampaign is the executor goroutine behind one campaign: journaled cells
// replay, the rest run through the server's result pipeline on the bounded
// worker pool. The campaign runs under the server's lifetime, not any
// request's — the POST that admitted it answered long ago. The report stream
// goes nowhere (the journal is the record; GET …/report replays it); only the
// lifecycle transition and the journal survive this function.
func (s *Server) runCampaign(c *campaignRun) {
	ctx, cancel := s.campaignContext()
	c.cancel = cancel
	defer cancel()
	sp := s.tracer.StartRoot("campaign", span.Context{})
	sp.SetAttr("campaign", c.id)
	sp.SetAttr("cells", strconv.Itoa(c.plan.Total()))
	runner := s.cellRunner(obs.RouteCampaign, sp.Context(), c.plan.Checkpoint())
	stats, err := campaign.Execute(ctx, c.plan, c.j, runner, io.Discard, campaign.Options{
		Workers:  s.cfg.Workers + s.cfg.QueueDepth,
		Lanes:    s.cfg.Workers,
		Progress: c.prog,
		Start:    c.start,
		OnCell: func(cell campaign.Cell, res campaign.CellResult, d time.Duration) {
			s.sm.CampaignCell(res.Class.String())
		},
	})
	// Execute syncs on success; make the suspend path just as durable.
	_ = c.j.Sync()

	state, event := campaignDone, obs.CampaignCompleted
	errMsg := ""
	switch {
	case err == nil:
		if n := stats.Errors(); n > 0 {
			errMsg = fmt.Sprintf("%d of %d cells failed", n, stats.Total)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state, event = campaignSuspended, obs.CampaignSuspended
		errMsg = err.Error()
	default:
		state, event = campaignFailed, obs.CampaignFailed
		errMsg = err.Error()
	}
	c.mu.Lock()
	c.state, c.errMsg = state, errMsg
	c.mu.Unlock()
	sp.SetAttr("state", state)
	sp.End()
	s.sm.CampaignEvent(event)
	s.sm.AddCampaignsActive(-1)
	s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "campaign "+state,
		slog.String("campaign", c.id),
		slog.Int("done", stats.Done),
		slog.Int("replayed", stats.Replayed),
		slog.Int("errors", stats.Errors()),
		slog.Duration("elapsed", stats.Elapsed),
	)
	close(c.done)
}

// campaignContext derives the executor's context: the server's lifetime, not
// any request's. Campaigns survive their admitting request and stop only on
// shutdown (suspended, resumable) or their own completion.
func (s *Server) campaignContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(s.baseCtx)
}

// ResumeCampaigns scans the campaign directory and relaunches every journal
// found there: unfinished campaigns pick up exactly where they stopped
// (journaled cells replay, pending cells execute), finished ones replay to a
// terminal "done" so their status and report stay queryable. Call once at
// startup, after New and before serving traffic. Unreadable journals are
// logged and skipped, never fatal — one corrupt file must not take down the
// daemon. Returns how many campaigns were relaunched.
func (s *Server) ResumeCampaigns() (int, error) {
	if s.cfg.CampaignDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.CampaignDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, os.MkdirAll(s.cfg.CampaignDir, 0o755)
		}
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tvcj") {
			continue
		}
		path := filepath.Join(s.cfg.CampaignDir, e.Name())
		j, plan, err := campaign.LoadJournal(path)
		if err != nil {
			s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "campaign journal skipped",
				slog.String("path", path), slog.String("cause", err.Error()))
			continue
		}
		s.campMu.Lock()
		if _, ok := s.campaigns[plan.Hash()]; ok {
			s.campMu.Unlock()
			j.Close()
			continue
		}
		s.launchLocked(plan, j)
		s.campMu.Unlock()
		n++
	}
	return n, nil
}

func (s *Server) handleCampaignPost(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.StartRoot("campaign_admit", span.Extract(r))
	defer sp.End()
	reqID := sp.TraceID().String()
	h := w.Header()
	h.Set("X-Request-Id", reqID)
	sp.Context().Inject(h)
	if r.Method != http.MethodPost {
		sp.SetAttr("outcome", "error")
		s.fail(w, r, reqID, "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	if s.cfg.CampaignDir == "" {
		sp.SetAttr("outcome", "disabled")
		s.fail(w, r, reqID, "", http.StatusServiceUnavailable, errCampaignsDisabled)
		return
	}
	var spec campaign.Spec
	var plan *campaign.Plan
	err := decode(w, r, &spec)
	if err == nil {
		if plan, err = campaign.NewPlan(spec); err != nil {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if err == nil && plan.Total() > s.cfg.MaxCampaignCells {
		err = fmt.Errorf("%w: %d cells over server cap %d", ErrBadRequest, plan.Total(), s.cfg.MaxCampaignCells)
	}
	if err == nil {
		err = s.checkPolicy(plan.Cell(0).Config)
	}
	if err != nil {
		s.sm.Outcome(obs.ServeBadRequest)
		sp.SetAttr("outcome", "bad_request")
		s.fail(w, r, reqID, "", http.StatusBadRequest, err)
		return
	}
	sp.SetAttr("campaign", plan.Hash())
	c, created, err := s.startCampaign(plan)
	if err != nil {
		sp.SetAttr("outcome", "error")
		s.fail(w, r, reqID, plan.Hash(), http.StatusInternalServerError, err)
		return
	}
	sp.SetAttr("outcome", map[bool]string{true: "launched", false: "joined"}[created])
	h.Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusAccepted)
	}
	_ = json.NewEncoder(w).Encode(c.status())
}

// handleCampaignGet answers GET /v1/campaign/{id} (status document) and
// GET /v1/campaign/{id}/report (the journaled NDJSON prefix — for a finished
// campaign, the full report, byte-identical to what an uninterrupted
// synchronous run would have streamed).
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, "", "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaign/")
	id, sub, _ := strings.Cut(rest, "/")
	s.campMu.Lock()
	c, ok := s.campaigns[id]
	s.campMu.Unlock()
	if !ok {
		s.fail(w, r, id, "", http.StatusNotFound, errors.New("unknown campaign id"))
		return
	}
	switch sub {
	case "":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.status())
	case "report":
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		total := c.plan.Total()
		for i := 0; i < total; i++ {
			_, line, ok, err := c.j.ReadLine(i)
			if err != nil || !ok {
				// The journal is a strict prefix of the report: the first
				// missing cell ends what this run can serve so far.
				return
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	default:
		s.fail(w, r, id, "", http.StatusNotFound,
			fmt.Errorf("unknown campaign resource %q (want status or report)", sub))
	}
}
