// Package feedback implements the Workflow View Feedback module: the
// demo's iterate-until-satisfied loop in which WOLVES corrects a view,
// the user re-groups tasks ("Create Composite Task"), and the validator
// runs again — until the user accepts a sound view.
//
// The GUI loop of Figure 2 becomes a Session with explicit operations,
// plus a tiny script language so the CLI (and tests) can drive whole
// interactions deterministically.
package feedback

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"wolves/internal/core"
	"wolves/internal/engine"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Event records one session operation for the audit log.
type Event struct {
	At         time.Time
	Op         string
	Detail     string
	Sound      bool
	Composites int
}

// Session drives the validate → correct → feedback loop over one view.
// Every pipeline operation runs through a wolves Engine, so sessions
// sharing an Engine share its oracle cache — there is exactly one way to
// run the pipeline.
type Session struct {
	eng     *engine.Engine
	wf      *workflow.Workflow
	current *view.View
	// report is current's validation report: a view becomes current
	// only once it has been validated.
	report   *soundness.Report
	history  []*view.View
	log      []Event
	accepted bool
}

// ErrAccepted is returned when mutating an accepted session.
var ErrAccepted = errors.New("feedback: session already accepted")

// NewSession starts a session on view v with a private single-workflow
// Engine.
func NewSession(wf *workflow.Workflow, v *view.View) (*Session, error) {
	return NewSessionWith(engine.New(engine.WithOracleCache(1)), wf, v)
}

// NewSessionWith starts a session on view v backed by eng (shared
// engines amortize the oracle cache across sessions).
func NewSessionWith(eng *engine.Engine, wf *workflow.Workflow, v *view.View) (*Session, error) {
	if !workflow.Same(v.Workflow(), wf) {
		return nil, errors.New("feedback: view belongs to a different workflow")
	}
	rep, err := eng.Validate(bg(), wf, v)
	if err != nil {
		return nil, err
	}
	s := &Session{eng: eng, wf: wf, current: v, report: rep}
	s.record("open", v.Name())
	return s, nil
}

// Current returns the session's current view.
func (s *Session) Current() *view.View { return s.current }

// Oracle exposes the session's soundness oracle (shared closure).
func (s *Session) Oracle() *soundness.Oracle { return s.eng.Oracle(s.wf) }

// Accepted reports whether the user has accepted the view.
func (s *Session) Accepted() bool { return s.accepted }

// Log returns the event log.
func (s *Session) Log() []Event { return append([]Event(nil), s.log...) }

// bg anchors the root context for the session's structural operations
// (open, merge, compact, undo): their validation is a lookup against the
// cached oracle closure, bounded and never worth canceling. The
// operations that do search (ValidateCtx, CorrectCtx, SplitTaskCtx)
// take the caller's ctx instead.
func bg() context.Context {
	return context.Background() //lint:allow ctxpass structural ops validate against the cached oracle; bounded work, nothing to cancel
}

// record appends an event for the current view and its report.
func (s *Session) record(op, detail string) {
	s.log = append(s.log, Event{
		At: time.Now(), Op: op, Detail: detail,
		Sound: s.report.Sound, Composites: s.current.N(),
	})
}

// ValidateCtx runs the validator on the current view, with cooperative
// cancellation. A canceled ctx returns its error, and the session is
// left as it was.
func (s *Session) ValidateCtx(ctx context.Context) (*soundness.Report, error) {
	rep, err := s.eng.Validate(ctx, s.wf, s.current)
	if err != nil {
		return nil, err
	}
	s.report = rep
	s.record("validate", s.current.Name())
	return rep, nil
}

// push validates v and, only once that has succeeded, makes it the
// current view: a failed validation leaves the session as it was.
func (s *Session) push(ctx context.Context, v *view.View, op, detail string) error {
	rep, err := s.eng.Validate(ctx, s.wf, v)
	if err != nil {
		return err
	}
	s.history = append(s.history, s.current)
	s.current, s.report = v, rep
	s.record(op, detail)
	return nil
}

// CorrectCtx repairs the whole view under the chosen criterion, with
// cooperative cancellation (an interactive UI's cancel button maps
// straight onto ctx).
func (s *Session) CorrectCtx(ctx context.Context, crit core.Criterion, opts *core.Options) (*core.ViewCorrection, error) {
	if s.accepted {
		return nil, ErrAccepted
	}
	vc, err := s.eng.CorrectWithOracle(ctx, s.Oracle(), s.current, crit, opts)
	if err != nil {
		return nil, err
	}
	if err := s.push(ctx, vc.Corrected, "correct", crit.String()); err != nil {
		return nil, err
	}
	return vc, nil
}

// SplitTaskCtx corrects a single composite (the demo's "Split Task"
// popup), with cooperative cancellation.
func (s *Session) SplitTaskCtx(ctx context.Context, compID string, crit core.Criterion, opts *core.Options) (*core.Result, error) {
	if s.accepted {
		return nil, ErrAccepted
	}
	comp, ok := s.current.CompositeByID(compID)
	if !ok {
		return nil, fmt.Errorf("feedback: %w: %q", view.ErrUnknownComp, compID)
	}
	res, err := s.eng.SplitWithOracle(ctx, s.Oracle(), comp.Members(), crit, opts)
	if err != nil {
		return nil, err
	}
	next, err := s.current.ReplaceComposites(view.Split{ID: compID, Blocks: res.Blocks})
	if err != nil {
		return nil, err
	}
	if err := s.push(ctx, next, "split", fmt.Sprintf("%s via %s → %d blocks", compID, crit, len(res.Blocks))); err != nil {
		return nil, err
	}
	return res, nil
}

// Compact greedily merges composite pairs whose union stays sound (the
// split/merge interaction extension). maxMerges ≤ 0 means unbounded.
func (s *Session) Compact(maxMerges int) (int, error) {
	if s.accepted {
		return 0, ErrAccepted
	}
	compacted, merges, err := core.Compact(s.Oracle(), s.current, maxMerges)
	if err != nil {
		return 0, err
	}
	if merges > 0 {
		if err := s.push(bg(), compacted, "compact", fmt.Sprintf("%d merges", merges)); err != nil {
			return 0, err
		}
	}
	return merges, nil
}

// MergeTasks is the user's "Create Composite Task" feedback operation.
// The result may be unsound; the next ValidateCtx (or the corrector)
// will say so — exactly the demo's loop.
func (s *Session) MergeTasks(newID string, compIDs ...string) error {
	if s.accepted {
		return ErrAccepted
	}
	next, err := s.current.MergeComposites(newID, compIDs...)
	if err != nil {
		return err
	}
	return s.push(bg(), next, "merge", fmt.Sprintf("%s = %s", newID, strings.Join(compIDs, "+")))
}

// Undo restores the previous view.
func (s *Session) Undo() error {
	if s.accepted {
		return ErrAccepted
	}
	if len(s.history) == 0 {
		return errors.New("feedback: nothing to undo")
	}
	prev := s.history[len(s.history)-1]
	rep, err := s.eng.Validate(bg(), s.wf, prev)
	if err != nil {
		return err
	}
	s.current, s.report = prev, rep
	s.history = s.history[:len(s.history)-1]
	s.record("undo", s.current.Name())
	return nil
}

// Accept finalizes the session. Accepting an unsound view is allowed —
// the user owns the decision — but the event log records the verdict
// of the current view's report.
func (s *Session) Accept() {
	if !s.accepted {
		s.accepted = true
		s.record("accept", s.current.Name())
	}
}

// RunScript executes a session script: one command per line, '#'
// comments. Commands:
//
//	validate
//	correct weak|strong|strong-audited|optimal
//	split <compositeID> weak|strong|strong-audited|optimal
//	merge <newID> <comp1> <comp2> [...]
//	compact [maxMerges]
//	undo
//	accept
//
// Output lines describing each step are written to out. The validate,
// correct and split commands observe ctx.
func (s *Session) RunScript(ctx context.Context, r io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if err := s.runCommand(ctx, fields, out); err != nil {
			return fmt.Errorf("feedback: line %d (%q): %w", line, text, err)
		}
	}
	return sc.Err()
}

func (s *Session) runCommand(ctx context.Context, fields []string, out io.Writer) error {
	switch fields[0] {
	case "validate":
		rep, err := s.ValidateCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "validate: sound=%v composites=%d unsound=%d\n",
			rep.Sound, s.current.N(), len(rep.Unsound))
	case "correct":
		if len(fields) != 2 {
			return errors.New("usage: correct <criterion>")
		}
		crit, err := core.ParseCriterion(fields[1])
		if err != nil {
			return err
		}
		vc, err := s.CorrectCtx(ctx, crit, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "correct(%s): %d → %d composites\n",
			crit, vc.CompositesBefore, vc.CompositesAfter)
	case "split":
		if len(fields) != 3 {
			return errors.New("usage: split <composite> <criterion>")
		}
		crit, err := core.ParseCriterion(fields[2])
		if err != nil {
			return err
		}
		res, err := s.SplitTaskCtx(ctx, fields[1], crit, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "split(%s, %s): %d blocks\n", fields[1], crit, len(res.Blocks))
	case "merge":
		if len(fields) < 4 {
			return errors.New("usage: merge <newID> <comp> <comp> [...]")
		}
		if err := s.MergeTasks(fields[1], fields[2:]...); err != nil {
			return err
		}
		fmt.Fprintf(out, "merge(%s): %d composites\n", fields[1], s.current.N())
	case "compact":
		max := 0
		if len(fields) == 2 {
			if _, err := fmt.Sscanf(fields[1], "%d", &max); err != nil {
				return fmt.Errorf("usage: compact [maxMerges]: %w", err)
			}
		}
		merges, err := s.Compact(max)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "compact: %d merges, %d composites\n", merges, s.current.N())
	case "undo":
		if err := s.Undo(); err != nil {
			return err
		}
		fmt.Fprintf(out, "undo: %d composites\n", s.current.N())
	case "accept":
		s.Accept()
		fmt.Fprintf(out, "accept: sound=%v composites=%d\n", s.report.Sound, s.current.N())
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}
