// Package wolves is a from-scratch Go implementation of WOLVES
// (WOrkfLow ViEwS), the system demonstrated at VLDB 2009 in "WOLVES:
// Achieving Correct Provenance Analysis by Detecting and Resolving
// Unsound Workflow Views" (Sun, Liu, Natarajan, Davidson, Chen).
//
// A workflow view abstracts groups of tasks into composite tasks. An
// unsound view fails to preserve the dataflow between tasks and silently
// corrupts provenance analysis. This package detects unsound views
// (polynomially, via Definition 2.3 and Proposition 2.1) and repairs
// them by splitting unsound composite tasks under three criteria: weak
// local optimality, strong local optimality (both polynomial), and true
// optimality (exponential; the problem is NP-hard).
//
// # Quick start
//
// The pipeline runs through a long-lived, concurrency-safe Engine. It
// owns an LRU cache of soundness oracles keyed by a workflow fingerprint
// (a hash of the canonical edge list), so repeated requests for the same
// workflow — even decoded independently from JSON — build the expensive
// reachability closure exactly once:
//
//	wf, _ := wolves.NewWorkflowBuilder("demo").
//		AddTask("extract").AddTask("cleanA").AddTask("cleanB").AddTask("load").
//		AddEdge("extract", "cleanA").AddEdge("extract", "cleanB").
//		AddEdge("cleanA", "load").AddEdge("cleanB", "load").
//		Build()
//	v, _ := wolves.ViewFromAssignments(wf, "v", map[string][]string{
//		"in": {"extract"}, "clean": {"cleanA", "cleanB"}, "out": {"load"},
//	})
//	eng := wolves.NewEngine()
//	ctx := context.Background()
//	report, _ := eng.Validate(ctx, wf, v)               // clean is unsound
//	fixed, _ := eng.Correct(ctx, wf, v, wolves.Strong)  // fixed.Corrected is sound
//
// Engines take functional options — WithWorkers (fan-out width),
// WithOracleCache (LRU capacity), WithCorrectorOptions, and
// WithOptimalTimeout — and expose batch entry points (ValidateBatch,
// CorrectBatch) that spread independent jobs over the worker pool.
// eng.Oracle(wf) hands out the cached oracle that the oracle-level
// helpers (MergeUp, NewAdvisor, Compact, Summary, …) take, and the
// ...WithOracle methods reuse one oracle across many views.
// cmd/wolvesd serves the same Engine over HTTP.
//
// # Errors and cancellation
//
// Engine methods return *Error values whose Code classifies the failure
// (ErrUnknownTask, ErrOptimalLimit, ErrCanceled, …); errors.Is still
// reaches the wrapped cause. Every method observes ctx. In particular,
// Correct under wolves.Optimal runs an exponential subset DP: the DP
// polls cancellation inside its enumeration loops, so a canceled or
// expired context aborts the correction within milliseconds (bounded
// ~100ms even on 2^20-state instances), returning an ErrCanceled-coded
// error and no partial result. WithOptimalTimeout imposes such a bound
// engine-wide; polynomial criteria (Weak, Strong) are unaffected.
//
// The deeper machinery (bit-level soundness oracle, correction phases,
// MOML codec, workload generators, the simulated repository, the
// estimator and the feedback loop) lives in internal packages and is
// re-exported here as a stable, documented surface.
package wolves

import (
	"io"

	"wolves/internal/core"
	"wolves/internal/display"
	"wolves/internal/engine"
	"wolves/internal/estimate"
	"wolves/internal/feedback"
	"wolves/internal/gen"
	"wolves/internal/moml"
	"wolves/internal/provenance"
	"wolves/internal/repo"
	"wolves/internal/runs"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// --- engine -------------------------------------------------------------------

// Engine is the long-lived service facade: a concurrency-safe pipeline
// object owning a fingerprint-keyed LRU cache of soundness oracles. See
// the package documentation for the serving model.
type Engine = engine.Engine

// EngineOption configures an Engine at construction time.
type EngineOption = engine.Option

// Batch job and result types of Engine.ValidateBatch / Engine.CorrectBatch.
type (
	// ValidateJob is one unit of Engine.ValidateBatch work.
	ValidateJob = engine.ValidateJob
	// ValidateResult pairs a batch job's report with its typed error.
	ValidateResult = engine.ValidateResult
	// CorrectJob is one unit of Engine.CorrectBatch work.
	CorrectJob = engine.CorrectJob
	// CorrectResult pairs a batch job's correction with its typed error.
	CorrectResult = engine.CorrectResult
	// EngineCacheStats snapshots the oracle cache counters.
	EngineCacheStats = engine.CacheStats
)

// NewEngine constructs an Engine.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// Functional options for NewEngine.
var (
	// WithWorkers sets the fan-out width (0 = GOMAXPROCS).
	WithWorkers = engine.WithWorkers
	// WithOracleCache sets the oracle LRU capacity (0 disables caching).
	WithOracleCache = engine.WithOracleCache
	// WithCorrectorOptions sets default corrector options.
	WithCorrectorOptions = engine.WithCorrectorOptions
	// WithOptimalTimeout bounds every Optimal correction.
	WithOptimalTimeout = engine.WithOptimalTimeout
)

// Error is the structured error returned by every Engine method.
type Error = engine.Error

// ErrorCode classifies an Error for programmatic handling.
type ErrorCode = engine.Code

// Error codes carried by *Error.
const (
	ErrBadInput         = engine.ErrBadInput
	ErrUnknownTask      = engine.ErrUnknownTask
	ErrUnknownComposite = engine.ErrUnknownComposite
	ErrWorkflowMismatch = engine.ErrWorkflowMismatch
	ErrOptimalLimit     = engine.ErrOptimalLimit
	ErrCanceled         = engine.ErrCanceled
	ErrUnknownWorkflow  = engine.ErrUnknownWorkflow
	ErrUnknownView      = engine.ErrUnknownView
	ErrVersionConflict  = engine.ErrVersionConflict
	ErrCycleRejected    = engine.ErrCycleRejected
	ErrInvalidTrace     = engine.ErrInvalidTrace
	ErrUnknownRun       = engine.ErrUnknownRun
	ErrUnknownArtifact  = engine.ErrUnknownArtifact
	ErrInternal         = engine.ErrInternal
)

// Live workflow registry: named, versioned, mutable workflows whose
// attached views are revalidated incrementally on every mutation batch.
// See internal/engine's package documentation for versioning,
// concurrency and eviction semantics.
type (
	// Registry is a concurrency-safe store of named live workflows.
	Registry = engine.Registry
	// LiveWorkflow is one named, versioned, mutable workflow.
	LiveWorkflow = engine.LiveWorkflow
	// WorkflowMutation is a batch of task and edge additions.
	WorkflowMutation = engine.Mutation
	// MutationResult summarizes one applied mutation batch.
	MutationResult = engine.MutationResult
	// ViewDelta describes how one attached view absorbed a mutation.
	ViewDelta = engine.ViewDelta
	// LiveWorkflowInfo is a metadata snapshot of a live workflow.
	LiveWorkflowInfo = engine.WorkflowInfo
	// LineageResult contrasts view-level with exact task-level lineage.
	LineageResult = engine.LineageResult
	// RegistryOption configures a Registry at construction time.
	RegistryOption = engine.RegistryOption
	// Journal receives every committed registry transition; the durable
	// implementation (write-ahead log + snapshots + crash recovery)
	// lives in internal/storage and backs wolvesd's -data-dir flag.
	Journal = engine.Journal
	// LiveState is the read-consistent snapshot description handed to a
	// Journal and to LiveWorkflow.State callbacks.
	LiveState = engine.LiveState
	// AppliedBatch is the committed portion of a mutation batch.
	AppliedBatch = engine.AppliedBatch
	// RestoredView names one view to re-attach during recovery.
	RestoredView = engine.RestoredView
)

// NewRegistry constructs a live workflow registry backed by eng.
func NewRegistry(eng *Engine, opts ...RegistryOption) *Registry {
	return engine.NewRegistry(eng, opts...)
}

// WithRegistryCapacity bounds the number of live workflows (LRU-evicted
// beyond it).
var WithRegistryCapacity = engine.WithRegistryCapacity

// WithJournal installs a journal at registry construction; see Journal.
var WithJournal = engine.WithJournal

// Run store: a concurrent, multi-run provenance store layered on the
// registry. Ingest OPM-style execution traces (JSON or NDJSON) against
// a registered workflow, then query lineage / descendants /
// why-provenance at three levels — exact (task closure), view
// (composite closure) and audited (view answer plus the soundness
// delta: a sound flag and the exact spurious/missing composites). See
// internal/runs for the full semantics; wolvesd serves the same store
// under /v1/workflows/{id}/runs.
type (
	// RunStore is the multi-run provenance store.
	RunStore = runs.Store
	// RunStoreOption configures a RunStore at construction time.
	RunStoreOption = runs.Option
	// RunInfo is the metadata of one ingested run.
	RunInfo = runs.RunInfo
	// RunQuery is one lineage question against an ingested run.
	RunQuery = runs.Query
	// RunLineage is the answer to a RunQuery.
	RunLineage = runs.Answer
	// RunBatchResult is the per-query outcome of batched lineage.
	RunBatchResult = runs.BatchResult
	// RunStoreStats is the run store's residency snapshot.
	RunStoreStats = runs.Stats
	// RunJournal persists ingested runs; internal/storage implements it
	// next to the registry Journal.
	RunJournal = runs.Journal
)

// NewRunStore constructs a run store over reg.
func NewRunStore(reg *Registry, opts ...RunStoreOption) *RunStore {
	return runs.New(reg, opts...)
}

// WithRunJournal installs the durability journal on a run store at
// construction.
var WithRunJournal = runs.WithJournal

// --- workflow model ---------------------------------------------------------

// Workflow is an immutable workflow specification (a DAG of tasks).
type Workflow = workflow.Workflow

// Task is an atomic workflow task.
type Task = workflow.Task

// WorkflowBuilder accumulates tasks and edges and validates on Build.
type WorkflowBuilder = workflow.Builder

// NewWorkflowBuilder starts a workflow specification.
func NewWorkflowBuilder(name string) *WorkflowBuilder { return workflow.NewBuilder(name) }

// DecodeWorkflowJSON reads a workflow from its JSON format. It reads r
// to its end before decoding (see workflow.DecodeJSON), so r must reach
// EOF: a pipe or connection that stays open after the document blocks
// it.
func DecodeWorkflowJSON(r io.Reader) (*Workflow, error) { return workflow.DecodeJSON(r) }

// --- view model ---------------------------------------------------------------

// View is an immutable partition of a workflow's tasks into composites.
type View = view.View

// Composite is a composite task of a view.
type Composite = view.Composite

// ViewBuilder accumulates composite assignments.
type ViewBuilder = view.Builder

// NewViewBuilder starts a view over wf.
func NewViewBuilder(wf *Workflow, name string) *ViewBuilder { return view.NewBuilder(wf, name) }

// ViewFromAssignments builds a view from a composite→tasks map.
func ViewFromAssignments(wf *Workflow, name string, assign map[string][]string) (*View, error) {
	return view.FromAssignments(wf, name, assign)
}

// AtomicView returns the identity view (one composite per task).
func AtomicView(wf *Workflow) *View { return view.Atomic(wf) }

// DecodeViewJSON reads a view over wf from its JSON format. Like
// DecodeWorkflowJSON, it reads r to its end before decoding.
func DecodeViewJSON(wf *Workflow, r io.Reader) (*View, error) { return view.DecodeJSON(wf, r) }

// --- validation ---------------------------------------------------------------

// Oracle answers soundness queries for one workflow (it owns the
// reachability closure). Engine.Oracle hands out cached ones.
type Oracle = soundness.Oracle

// Report is a full view validation result with per-composite witnesses.
type Report = soundness.Report

// Violation witnesses unsoundness: an in-node that cannot reach an out-node.
type Violation = soundness.Violation

// PathReport is the direct Definition-2.1 diagnosis.
type PathReport = soundness.PathReport

// ValidatePaths applies Definition 2.1 literally at the view level.
func ValidatePaths(o *Oracle, v *View) *PathReport { return soundness.ValidateViewPaths(o, v) }

// DescribeViolation renders a violation with task IDs.
func DescribeViolation(wf *Workflow, viol Violation) string {
	return soundness.DescribeViolation(wf, viol)
}

// --- correction ---------------------------------------------------------------

// Criterion selects a correction algorithm.
type Criterion = core.Criterion

// Correction criteria (see the paper, Definitions 2.5 and 2.6).
const (
	Weak          = core.Weak
	Strong        = core.Strong
	StrongAudited = core.StrongAudited
	Optimal       = core.Optimal
)

// CorrectorOptions tunes the correctors.
type CorrectorOptions = core.Options

// SplitResult is the outcome of splitting one composite.
type SplitResult = core.Result

// ViewCorrection is the outcome of correcting a whole view.
type ViewCorrection = core.ViewCorrection

// MergeUpResult is the outcome of the merge-based corrector extension.
type MergeUpResult = core.MergeUpResult

// ParseCriterion maps CLI names (weak|strong|strong-audited|optimal).
func ParseCriterion(s string) (Criterion, error) { return core.ParseCriterion(s) }

// MergeUp repairs an unsound view by merging composites instead of
// splitting them — the paper's stated open problem, as an extension.
func MergeUp(o *Oracle, v *View) (*MergeUpResult, error) { return core.MergeUp(o, v) }

// Advisor answers view-design-time soundness questions (the demo's
// "suggestions while users are creating a view").
type Advisor = core.Advisor

// NewAdvisor wraps an oracle for interactive view design.
func NewAdvisor(o *Oracle) *Advisor { return core.NewAdvisor(o) }

// Compact greedily merges composite pairs whose union stays sound —
// the split/merge interaction the paper names as an open problem.
func Compact(o *Oracle, v *View, maxMerges int) (*View, int, error) {
	return core.Compact(o, v, maxMerges)
}

// WeakOptimal audits Definition 2.5 on a block list.
func WeakOptimal(o *Oracle, blocks [][]int) (bool, [2]int) { return core.WeakOptimal(o, blocks) }

// StrongOptimal audits Definition 2.6 exhaustively (up to limit blocks).
func StrongOptimal(o *Oracle, blocks [][]int, limit int) (bool, []int, bool) {
	return core.StrongOptimal(o, blocks, limit)
}

// Quality is the paper's quality ratio: optimal blocks / produced blocks.
func Quality(optimalBlocks, algBlocks int) float64 { return core.Quality(optimalBlocks, algBlocks) }

// --- provenance ---------------------------------------------------------------

// LineageEngine answers task-level provenance queries.
type LineageEngine = provenance.Engine

// ViewLineageEngine answers view-level provenance queries.
type ViewLineageEngine = provenance.ViewEngine

// ProvenanceAudit quantifies the provenance error a view induces.
type ProvenanceAudit = provenance.ViewAudit

// Trace is one simulated workflow execution (an OPM-style graph).
type Trace = provenance.Trace

// NewLineageEngine builds the workflow-level engine.
func NewLineageEngine(wf *Workflow) *LineageEngine { return provenance.NewEngine(wf) }

// NewViewLineageEngine builds the view-level engine.
func NewViewLineageEngine(v *View) *ViewLineageEngine { return provenance.NewViewEngine(v) }

// AuditProvenance compares view-level lineage answers with ground truth.
func AuditProvenance(e *LineageEngine, v *View) *ProvenanceAudit {
	return provenance.AuditView(e, v)
}

// Execute simulates one run of wf, producing a provenance trace.
func Execute(wf *Workflow, runID string) *Trace { return provenance.Execute(wf, runID) }

// --- MOML ---------------------------------------------------------------------

// MOMLDocument is a decoded MOML file: a workflow plus an optional view.
type MOMLDocument = moml.Document

// DecodeMOML parses a MOML document (Ptolemy/Kepler XML subset).
func DecodeMOML(r io.Reader) (*MOMLDocument, error) { return moml.Decode(r) }

// EncodeMOML writes wf (and optionally v) as MOML.
func EncodeMOML(w io.Writer, wf *Workflow, v *View) error { return moml.Encode(w, wf, v) }

// --- sessions (feedback loop) ---------------------------------------------------

// Session drives the validate → correct → user-feedback loop. Sessions
// run every operation through an Engine.
type Session = feedback.Session

// NewSession starts an interactive correction session on v with a
// private single-workflow Engine.
func NewSession(wf *Workflow, v *View) (*Session, error) { return feedback.NewSession(wf, v) }

// NewSessionWith starts a session backed by eng, sharing its oracle
// cache with every other consumer of that Engine.
func NewSessionWith(eng *Engine, wf *Workflow, v *View) (*Session, error) {
	return feedback.NewSessionWith(eng, wf, v)
}

// --- estimator -------------------------------------------------------------------

// Estimator predicts correction time and quality from history (§3.2).
type Estimator = estimate.Estimator

// EstimatorPrediction is one estimator answer.
type EstimatorPrediction = estimate.Prediction

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return estimate.New() }

// --- display ---------------------------------------------------------------------

// DisplayOptions tunes DOT/text rendering.
type DisplayOptions = display.Options

// WorkflowDOT renders the workflow (optionally clustered by a view) as DOT.
func WorkflowDOT(w io.Writer, wf *Workflow, v *View, opts *DisplayOptions) error {
	return display.WorkflowDOT(w, wf, v, opts)
}

// ViewDOT renders the view graph as DOT.
func ViewDOT(w io.Writer, v *View, opts *DisplayOptions) error {
	return display.ViewDOT(w, v, opts)
}

// Summary writes the per-composite text diagnosis.
func Summary(w io.Writer, o *Oracle, v *View) error { return display.Summary(w, o, v) }

// Dependencies renders the demo's "Show Dependency" answer for a task.
func Dependencies(w io.Writer, e *LineageEngine, taskID string) error {
	return display.Dependencies(w, e, taskID)
}

// --- repository and generators ------------------------------------------------------

// RepoEntry is one workflow of the simulated repository.
type RepoEntry = repo.Entry

// RepoViewSpec pairs a repository view with its expected diagnosis.
type RepoViewSpec = repo.ViewSpec

// Repository returns the simulated workflow repository (Kepler /
// myExperiment stand-in), including the paper's Figure 1 and Figure 3.
func Repository() []*RepoEntry { return repo.Catalog() }

// RepositoryGet returns one repository entry by key.
func RepositoryGet(key string) (*RepoEntry, error) { return repo.Get(key) }

// Figure1 returns the paper's phylogenomics workflow and unsound view.
func Figure1() (*Workflow, *View) { return repo.Figure1() }

// Fig3 bundles the reconstructed Figure 3 running example.
type Fig3 = repo.Fig3

// Figure3 returns the paper's running example.
func Figure3() *Fig3 { return repo.Figure3() }

// Generator configs, re-exported for workload construction.
type (
	// LayeredConfig parameterizes gen.Layered.
	LayeredConfig = gen.LayeredConfig
	// SPConfig parameterizes gen.SeriesParallel.
	SPConfig = gen.SPConfig
	// PipelineConfig parameterizes gen.ScientificPipeline.
	PipelineConfig = gen.PipelineConfig
)

// GenLayered builds a layered random workflow.
func GenLayered(cfg LayeredConfig) *Workflow { return gen.Layered(cfg) }

// GenSeriesParallel builds a series-parallel workflow.
func GenSeriesParallel(cfg SPConfig) *Workflow { return gen.SeriesParallel(cfg) }

// GenScientificPipeline builds a Kepler-style pipeline workflow.
func GenScientificPipeline(cfg PipelineConfig) *Workflow { return gen.ScientificPipeline(cfg) }

// GenIntervalView partitions wf into k topological bands.
func GenIntervalView(wf *Workflow, k int, name string) *View { return gen.IntervalView(wf, k, name) }

// GenRandomView assigns tasks to k composites at random.
func GenRandomView(wf *Workflow, k int, seed int64, name string) *View {
	return gen.RandomView(wf, k, seed, name)
}

// GenModuleView groups tasks by Kind.
func GenModuleView(wf *Workflow, name string) *View { return gen.ModuleView(wf, name) }

// GenBitonStyleView emulates automatic user-view construction [2].
func GenBitonStyleView(wf *Workflow, relevant []string, name string) (*View, error) {
	return gen.BitonStyleView(wf, relevant, name)
}

// GenUnsoundTask generates a workflow embedding one guaranteed-unsound
// composite of exactly n members (the corrector-benchmark family).
func GenUnsoundTask(n int, seed int64) (*Workflow, []int) { return gen.UnsoundTask(n, seed) }

// GenBicliqueTask generalizes the paper's Figure 3 instance to a k×k
// biclique: the weak corrector stalls at 2k+4 blocks while the strong
// corrector reaches 5. Returns the workflow and the composite members.
func GenBicliqueTask(k int) (*Workflow, []int) { return gen.BicliqueTask(k) }
