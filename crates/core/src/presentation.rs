//! The presentation engine (paper, Section 4).
//!
//! Given a [`MultimediaDocument`] and the evidence gathered from a viewing
//! session, the engine answers the two calls of Figure 6's
//! `MultimediaDocument` interface:
//!
//! * `defaultPresentation()` — the optimal presentation of the whole content
//!   given no viewer choices, and
//! * `reconfigPresentation(eventList)` — the best presentation consistent
//!   with the viewers' recent explicit choices.
//!
//! Both reduce to the CP-net *optimal completion* query. The engine then
//! applies the structural rule of the hierarchy: a component inside a hidden
//! composite is effectively invisible no matter which form its CP-net
//! variable took.
//!
//! A [`ViewerSession`] accumulates one viewer's explicit choices and her
//! *viewer-local* CP-net extension (Section 4.2): operations whose results
//! the viewer kept to herself live in the extension, never mutating the
//! shared document.

use crate::cpnet::{
    ExtendedNet, Extension, Outcome, PartialAssignment, PreferenceNet, ReconfigEngine, Value, VarId,
};
use crate::document::{ComponentId, ComponentKind, DerivedVar, FormKind, MultimediaDocument};
use crate::error::{CoreError, Result};
use std::sync::Mutex;

/// One explicit viewer decision: "present component `component` in form
/// `form`" (one of the paper's `eventList` entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewerChoice {
    /// The component the viewer clicked.
    pub component: ComponentId,
    /// The chosen form index (into the component's form list).
    pub form: usize,
}

/// Per-viewer session state kept by the interaction server.
#[derive(Debug, Clone)]
pub struct ViewerSession {
    viewer: String,
    /// Last-writer-wins explicit choices, keyed by component.
    choices: Vec<ViewerChoice>,
    /// Viewer-local CP-net extension (operation variables kept private).
    extension: Option<Extension>,
    /// Bookkeeping for the extension's derived variables.
    local_derived: Vec<DerivedVar>,
    /// Context evidence on tuning variables (e.g. measured bandwidth band).
    context: Vec<(VarId, Value)>,
}

impl ViewerSession {
    /// Opens a session for the named viewer.
    pub fn new(viewer: &str) -> Self {
        ViewerSession {
            viewer: viewer.to_string(),
            choices: Vec::new(),
            extension: None,
            local_derived: Vec::new(),
            context: Vec::new(),
        }
    }

    /// The viewer's name.
    pub fn viewer(&self) -> &str {
        &self.viewer
    }

    /// The explicit choices currently in force, in insertion order.
    pub fn choices(&self) -> &[ViewerChoice] {
        &self.choices
    }

    /// Viewer-local derived variables created so far.
    pub fn local_derived(&self) -> &[DerivedVar] {
        &self.local_derived
    }

    /// Records a choice, replacing any earlier choice on the same component.
    pub fn choose(&mut self, doc: &MultimediaDocument, choice: ViewerChoice) -> Result<()> {
        let forms = doc.forms(choice.component)?;
        if choice.form >= forms.len() {
            return Err(CoreError::ValueOutOfRange {
                var: choice.component.0,
                value: choice.form as u16,
                domain: forms.len(),
            });
        }
        self.choices.retain(|c| c.component != choice.component);
        self.choices.push(choice);
        Ok(())
    }

    /// Withdraws the choice on `component` (back to author preference).
    pub fn unchoose(&mut self, component: ComponentId) {
        self.choices.retain(|c| c.component != component);
    }

    /// Sets context evidence on a tuning variable (e.g. bandwidth band).
    pub fn set_context(&mut self, var: VarId, value: Value) {
        self.context.retain(|&(v, _)| v != var);
        self.context.push((var, value));
    }

    /// Performs an operation on a component **keeping the result viewer
    /// local**: a derived variable is added to this session's extension,
    /// the shared document is untouched (paper, Section 4.2).
    ///
    /// `trigger_form` is the form the component was presented in when the
    /// operation was performed.
    pub fn apply_local_operation(
        &mut self,
        doc: &MultimediaDocument,
        component: ComponentId,
        trigger_form: usize,
        operation: &str,
    ) -> Result<VarId> {
        let forms = doc.forms(component)?;
        if trigger_form >= forms.len() {
            return Err(CoreError::ValueOutOfRange {
                var: component.0,
                value: trigger_form as u16,
                domain: forms.len(),
            });
        }
        let ext = self
            .extension
            .get_or_insert_with(|| Extension::new(doc.net()));
        if ext.base_vars() != doc.net().len() {
            return Err(CoreError::UpdateRejected(format!(
                "session extension is stale (base had {} vars, document now has {}); \
                 call rebase first",
                ext.base_vars(),
                doc.net().len()
            )));
        }
        let name = format!("{}'{}@{}", doc.name(component)?, operation, self.viewer);
        let var = ext.add_derived_variable(
            doc.net(),
            component.var(),
            Value(trigger_form as u16),
            &name,
            &format!("{operation} applied"),
            "plain",
        )?;
        self.local_derived.push(DerivedVar {
            var,
            component,
            operation: operation.to_string(),
            trigger_form,
        });
        Ok(var)
    }

    /// Re-aligns the session after a structural document edit.
    ///
    /// `remap` is the id mapping returned by
    /// [`MultimediaDocument::remove_component`]; choices on removed
    /// components are dropped, the viewer-local extension is rebuilt empty
    /// (its parents may no longer exist — the paper's prototype re-derives
    /// local state after global edits), and context evidence is cleared.
    pub fn rebase(&mut self, remap: &[Option<ComponentId>]) {
        self.choices = self
            .choices
            .iter()
            .filter_map(|c| {
                remap
                    .get(c.component.idx())
                    .copied()
                    .flatten()
                    .map(|nc| ViewerChoice {
                        component: nc,
                        form: c.form,
                    })
            })
            .collect();
        self.extension = None;
        self.local_derived.clear();
        self.context.clear();
    }

    /// The evidence this session induces over the document's CP-net
    /// (choices plus context), e.g. for the prefetch planner.
    pub fn evidence_for(&self, doc: &MultimediaDocument) -> PartialAssignment {
        self.evidence(doc.net().len())
    }

    /// Builds the evidence (partial assignment) this session induces over
    /// `n` variables (document net, or document net + extension).
    fn evidence(&self, n: usize) -> PartialAssignment {
        let mut ev = PartialAssignment::empty(n);
        for c in &self.choices {
            ev.set(c.component.var(), Value(c.form as u16));
        }
        for &(v, val) in &self.context {
            if v.idx() < n {
                ev.set(v, val);
            }
        }
        ev
    }
}

/// The computed presentation of a document for one viewer: which form every
/// component takes, and which components are *effectively* visible after
/// structural hiding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Presentation {
    /// Form index per component (indexed by `ComponentId`).
    forms: Vec<usize>,
    /// Effective visibility per component after structural hiding.
    visible: Vec<bool>,
    /// States of derived/tuning variables: `(variable name, value name)`.
    derived: Vec<(String, String)>,
}

impl Presentation {
    /// The chosen form of `c`.
    pub fn form(&self, c: ComponentId) -> usize {
        self.forms[c.idx()]
    }

    /// `true` if `c` is effectively visible (own form not hidden, and no
    /// hidden ancestor).
    pub fn is_visible(&self, c: ComponentId) -> bool {
        self.visible[c.idx()]
    }

    /// All form choices, indexed by component id.
    pub fn forms(&self) -> &[usize] {
        &self.forms
    }

    /// Derived / tuning variable states (name → value).
    pub fn derived_states(&self) -> &[(String, String)] {
        &self.derived
    }

    /// The minimal redisplay delta between two presentations: components
    /// whose chosen form or effective visibility changed. This is what a
    /// client actually needs to re-render — "the hierarchical structure of
    /// the object permits sending only the relevant parts of the object for
    /// redisplay" (paper §5.3).
    pub fn diff(&self, newer: &Presentation) -> Vec<PresentationDelta> {
        let n = self.forms.len().min(newer.forms.len());
        let mut out = Vec::new();
        for i in 0..n {
            if self.forms[i] != newer.forms[i] || self.visible[i] != newer.visible[i] {
                out.push(PresentationDelta {
                    component: ComponentId(i as u32),
                    old_form: self.forms[i],
                    new_form: newer.forms[i],
                    now_visible: newer.visible[i],
                });
            }
        }
        out
    }

    /// Bytes a client must *additionally* fetch to move from `self` to
    /// `newer`: the transfer costs of components that became visible or
    /// changed form (already-rendered components cost nothing).
    pub fn delta_transfer_bytes(&self, newer: &Presentation, doc: &MultimediaDocument) -> u64 {
        self.diff(newer)
            .iter()
            .filter(|d| d.now_visible)
            .map(|d| {
                doc.forms(d.component)
                    .map(|forms| forms[d.new_form].cost_bytes)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Total bytes a client must receive to render this presentation
    /// (the sum of visible forms' transfer costs).
    pub fn transfer_bytes(&self, doc: &MultimediaDocument) -> u64 {
        self.forms
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.visible[i])
            .map(|(i, &f)| {
                doc.forms(ComponentId(i as u32))
                    .map(|forms| forms[f].cost_bytes)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Renders the content pane (the right side of Figure 5's GUI) as text:
    /// one line per visible component with its chosen form.
    pub fn render(&self, doc: &MultimediaDocument) -> String {
        let mut out = String::new();
        for c in doc.iter_depth_first() {
            if !self.is_visible(c) {
                continue;
            }
            let name = doc.name(c).unwrap_or("<?>");
            let forms = doc.forms(c).unwrap();
            let form = &forms[self.form(c)];
            match doc.kind(c).unwrap_or(ComponentKind::Composite) {
                ComponentKind::Composite => {
                    out.push_str(&format!("[{name}]\n"));
                }
                ComponentKind::Primitive => {
                    out.push_str(&format!(
                        "  {name}: {} ({} bytes)\n",
                        form.name, form.cost_bytes
                    ));
                }
            }
        }
        for (name, value) in &self.derived {
            out.push_str(&format!("  ~ {name} = {value}\n"));
        }
        out
    }
}

/// One entry of a presentation redisplay delta (see [`Presentation::diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresentationDelta {
    /// The component to re-render.
    pub component: ComponentId,
    /// Its previous form.
    pub old_form: usize,
    /// Its new form.
    pub new_form: usize,
    /// Whether it is visible after the change.
    pub now_visible: bool,
}

/// Presentation computation over documents and sessions.
///
/// The engine owns a [`ReconfigEngine`] behind a mutex, so repeated queries
/// for the same document are answered incrementally (dirty-cone recompute
/// over the viewer's previous outcome) or straight from the evidence memo;
/// see [`ReconfigEngine`]. The cache is
/// internal: all methods still take `&self`, and results are identical to
/// the stateless full sweep. Cloning an engine yields one with cold caches.
#[derive(Debug, Default)]
pub struct PresentationEngine {
    reconfig: Mutex<ReconfigEngine>,
}

impl Clone for PresentationEngine {
    fn clone(&self) -> Self {
        PresentationEngine::new()
    }
}

/// Cache key for the room-wide joint view. A NUL byte cannot appear in a
/// member name coming off the wire, so this never collides with a viewer.
const JOINT_VIEWER: &str = "\u{0}joint";

/// Cache key for the evidence-free default presentation.
const DEFAULT_VIEWER: &str = "\u{0}default";

impl PresentationEngine {
    /// Creates the engine with empty caches.
    pub fn new() -> Self {
        PresentationEngine::default()
    }

    fn completion(
        &self,
        doc: &MultimediaDocument,
        viewer: &str,
        evidence: &PartialAssignment,
    ) -> Outcome {
        self.reconfig
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .completion(doc.net(), viewer, evidence)
    }

    /// `defaultPresentation()`: the author-optimal presentation, with no
    /// viewer evidence.
    pub fn default_presentation(&self, doc: &MultimediaDocument) -> Presentation {
        static LAT: rcmo_obs::LazyHistogram = rcmo_obs::LazyHistogram::new(
            "core.presentation.default.us",
            rcmo_obs::bounds::LATENCY_US,
        );
        let _t = LAT.start_timer();
        let ev = PartialAssignment::empty(doc.net().len());
        let outcome = self.completion(doc, DEFAULT_VIEWER, &ev);
        self.project(doc, doc.net(), &outcome)
    }

    /// `reconfigPresentation(eventList)` for one viewer: the best
    /// presentation consistent with the session's choices, context and
    /// viewer-local extension.
    ///
    /// Sessions with a non-empty viewer-local extension bypass the
    /// incremental caches: the fused net is rebuilt per call and swept in
    /// full (extensions are rare and small; see DESIGN.md §9).
    pub fn presentation_for(
        &self,
        doc: &MultimediaDocument,
        session: &ViewerSession,
    ) -> Result<Presentation> {
        static LAT: rcmo_obs::LazyHistogram = rcmo_obs::LazyHistogram::new(
            "core.presentation.reconfig.us",
            rcmo_obs::bounds::LATENCY_US,
        );
        let _t = LAT.start_timer();
        match &session.extension {
            Some(ext) if !ext.is_empty() => {
                let fused = ExtendedNet::new(doc.net(), ext)?;
                let ev = session.evidence(fused.num_vars());
                let outcome = fused.optimal_completion(&ev);
                Ok(self.project(doc, &fused, &outcome))
            }
            _ => {
                let ev = session.evidence(doc.net().len());
                let outcome = self.completion(doc, session.viewer(), &ev);
                Ok(self.project(doc, doc.net(), &outcome))
            }
        }
    }

    /// The *joint* presentation of a shared room: all sessions' choices are
    /// merged (later sessions override earlier ones on conflicts) and a
    /// single optimal completion is computed. This is the view a room uses
    /// when partners are fully synchronised; per-viewer variations (e.g.
    /// Figure 9's two resolutions) come from
    /// [`presentation_for`](Self::presentation_for).
    pub fn joint_presentation(
        &self,
        doc: &MultimediaDocument,
        sessions: &[&ViewerSession],
    ) -> Presentation {
        let n = doc.net().len();
        let mut ev = PartialAssignment::empty(n);
        for s in sessions {
            for c in &s.choices {
                ev.set(c.component.var(), Value(c.form as u16));
            }
            for &(v, val) in &s.context {
                if v.idx() < n {
                    ev.set(v, val);
                }
            }
        }
        let outcome = self.completion(doc, JOINT_VIEWER, &ev);
        self.project(doc, doc.net(), &outcome)
    }

    /// Projects a CP-net outcome onto a [`Presentation`]: component forms,
    /// structural hiding, derived variable states.
    fn project<N: PreferenceNet>(
        &self,
        doc: &MultimediaDocument,
        net: &N,
        outcome: &Outcome,
    ) -> Presentation {
        let ncomp = doc.num_components();
        let mut forms = vec![0usize; ncomp];
        for (i, form) in forms.iter_mut().enumerate() {
            *form = outcome[i].idx();
        }
        let mut visible = vec![false; ncomp];
        for c in doc.iter_depth_first() {
            let own_visible = doc
                .forms(c)
                .map(|fs| fs[forms[c.idx()]].kind != FormKind::Hidden)
                .unwrap_or(false);
            let parent_visible = doc
                .parent(c)
                .ok()
                .flatten()
                .map(|p| visible[p.idx()])
                .unwrap_or(true);
            visible[c.idx()] = own_visible && parent_visible;
        }
        let derived = (ncomp..net.num_vars())
            .map(|i| {
                let v = VarId(i as u32);
                (
                    net.var_name(v).to_string(),
                    net.value_name(v, outcome[i]).to_string(),
                )
            })
            .collect();
        Presentation {
            forms,
            visible,
            derived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{MediaRef, PresentationForm, COMPOSITE_HIDDEN};

    fn medical_doc() -> (MultimediaDocument, ComponentId, ComponentId, ComponentId) {
        let mut doc = MultimediaDocument::new("record");
        let images = doc.add_composite(doc.root(), "Images").unwrap();
        let ct = doc
            .add_primitive(
                images,
                "CT",
                MediaRef::None,
                vec![
                    PresentationForm::new("flat", FormKind::Flat, 500_000),
                    PresentationForm::new("segmented", FormKind::Segmented, 650_000),
                    PresentationForm::hidden(),
                ],
            )
            .unwrap();
        let xray = doc
            .add_primitive(
                images,
                "X-ray",
                MediaRef::None,
                vec![
                    PresentationForm::new("flat", FormKind::Flat, 250_000),
                    PresentationForm::new("icon", FormKind::Icon, 4_000),
                    PresentationForm::hidden(),
                ],
            )
            .unwrap();
        // Author: if the CT is shown (flat or segmented), prefer the X-ray
        // as an icon (the paper's own example: "if a CT image is presented,
        // then a correlated X-ray image is preferred ... as a small icon").
        doc.author_parents(xray, &[ct]).unwrap();
        doc.author_preference(xray, &[(ct, 0)], &[1, 0, 2]).unwrap();
        doc.author_preference(xray, &[(ct, 1)], &[1, 0, 2]).unwrap();
        doc.author_preference(xray, &[(ct, 2)], &[0, 1, 2]).unwrap();
        doc.validate().unwrap();
        (doc, images, ct, xray)
    }

    #[test]
    fn default_presentation_follows_author() {
        let (doc, _, ct, xray) = medical_doc();
        let engine = PresentationEngine::new();
        let p = engine.default_presentation(&doc);
        assert_eq!(p.form(ct), 0, "CT flat");
        assert_eq!(p.form(xray), 1, "X-ray iconified while CT shown");
        assert!(p.is_visible(ct));
        assert!(p.is_visible(xray));
    }

    #[test]
    fn viewer_choice_reconfigures() {
        let (doc, _, ct, xray) = medical_doc();
        let engine = PresentationEngine::new();
        let mut s = ViewerSession::new("dr-a");
        // Viewer hides the CT; author then prefers the X-ray flat.
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 2,
            },
        )
        .unwrap();
        let p = engine.presentation_for(&doc, &s).unwrap();
        assert_eq!(p.form(ct), 2);
        assert!(!p.is_visible(ct));
        assert_eq!(p.form(xray), 0, "X-ray back to flat once CT hidden");
    }

    #[test]
    fn choice_is_last_writer_wins_and_can_be_withdrawn() {
        let (doc, _, ct, _) = medical_doc();
        let mut s = ViewerSession::new("dr-a");
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 1,
            },
        )
        .unwrap();
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 2,
            },
        )
        .unwrap();
        assert_eq!(s.choices().len(), 1);
        assert_eq!(s.choices()[0].form, 2);
        s.unchoose(ct);
        assert!(s.choices().is_empty());
    }

    #[test]
    fn invalid_choice_rejected() {
        let (doc, _, ct, _) = medical_doc();
        let mut s = ViewerSession::new("dr-a");
        assert!(s
            .choose(
                &doc,
                ViewerChoice {
                    component: ct,
                    form: 9
                }
            )
            .is_err());
        assert!(s
            .choose(
                &doc,
                ViewerChoice {
                    component: ComponentId(99),
                    form: 0
                }
            )
            .is_err());
    }

    #[test]
    fn structural_hiding_beats_cpnet_value() {
        let (doc, images, ct, _) = medical_doc();
        let engine = PresentationEngine::new();
        let mut s = ViewerSession::new("dr-a");
        // Hide the whole Images composite but explicitly choose CT flat:
        // the CT variable keeps the chosen form, yet it is not visible.
        s.choose(
            &doc,
            ViewerChoice {
                component: images,
                form: COMPOSITE_HIDDEN.idx(),
            },
        )
        .unwrap();
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 0,
            },
        )
        .unwrap();
        let p = engine.presentation_for(&doc, &s).unwrap();
        assert_eq!(p.form(ct), 0);
        assert!(!p.is_visible(ct), "hidden ancestor hides the CT");
        assert!(!p.is_visible(images));
    }

    #[test]
    fn local_operation_stays_viewer_local() {
        let (doc, _, ct, _) = medical_doc();
        let engine = PresentationEngine::new();
        let mut a = ViewerSession::new("dr-a");
        let mut b = ViewerSession::new("dr-b");
        a.apply_local_operation(&doc, ct, 0, "segmentation")
            .unwrap();
        let pa = engine.presentation_for(&doc, &a).unwrap();
        let pb = engine.presentation_for(&doc, &b).unwrap();
        assert_eq!(pa.derived_states().len(), 1);
        assert!(pb.derived_states().is_empty());
        assert_eq!(pa.derived_states()[0].1, "segmentation applied");
        // Shared document unchanged.
        assert_eq!(doc.net().len(), doc.num_components());
        // And dr-b's session is unaffected by dr-a's extension.
        b.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 1,
            },
        )
        .unwrap();
        let pb = engine.presentation_for(&doc, &b).unwrap();
        assert_eq!(pb.form(ct), 1);
    }

    #[test]
    fn joint_presentation_merges_choices() {
        let (doc, _, ct, xray) = medical_doc();
        let engine = PresentationEngine::new();
        let mut a = ViewerSession::new("dr-a");
        let mut b = ViewerSession::new("dr-b");
        a.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 1,
            },
        )
        .unwrap();
        b.choose(
            &doc,
            ViewerChoice {
                component: xray,
                form: 0,
            },
        )
        .unwrap();
        let p = engine.joint_presentation(&doc, &[&a, &b]);
        assert_eq!(p.form(ct), 1);
        assert_eq!(p.form(xray), 0);
    }

    #[test]
    fn rebase_after_removal_drops_stale_choices() {
        let (mut doc, _, ct, xray) = medical_doc();
        let mut s = ViewerSession::new("dr-a");
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 1,
            },
        )
        .unwrap();
        s.choose(
            &doc,
            ViewerChoice {
                component: xray,
                form: 1,
            },
        )
        .unwrap();
        s.apply_local_operation(&doc, ct, 0, "zoom").unwrap();
        // X-ray conditions on CT, so CT is not removable without first
        // re-authoring; remove the X-ray instead.
        let remap = doc.remove_component(xray, 2).unwrap();
        s.rebase(&remap);
        assert_eq!(s.choices().len(), 1);
        assert_eq!(s.choices()[0].component, ct);
        assert!(s.local_derived().is_empty());
        let engine = PresentationEngine::new();
        let p = engine.presentation_for(&doc, &s).unwrap();
        assert_eq!(p.form(ct), 1);
    }

    #[test]
    fn stale_extension_rejected_after_global_edit() {
        let (mut doc, _, ct, _) = medical_doc();
        let mut s = ViewerSession::new("dr-a");
        s.apply_local_operation(&doc, ct, 0, "zoom").unwrap();
        doc.add_global_operation(ct, 0, "segmentation").unwrap();
        // The extension was built against the pre-edit net.
        assert!(matches!(
            s.apply_local_operation(&doc, ct, 0, "marker"),
            Err(CoreError::UpdateRejected(_))
        ));
        let engine = PresentationEngine::new();
        assert!(engine.presentation_for(&doc, &s).is_err());
    }

    #[test]
    fn extension_bypass_agrees_with_full_sweep_after_structural_edits() {
        // Sessions with a viewer-local extension bypass the incremental
        // reconfiguration caches (DESIGN.md §9): the fused net is swept in
        // full per call. Pin that a warm engine — whose caches were built
        // against *pre-edit* document revisions — gives the same answer on
        // the extension path as a cold engine, and that the base-component
        // forms agree with the cached non-extension path for identical
        // choices and context.
        let (mut doc, _, ct, xray) = medical_doc();
        let warm = PresentationEngine::new();

        // Warm the incremental caches with non-extension traffic.
        let mut plain = ViewerSession::new("dr-a");
        warm.presentation_for(&doc, &plain).unwrap();
        plain
            .choose(
                &doc,
                ViewerChoice {
                    component: ct,
                    form: 1,
                },
            )
            .unwrap();
        warm.presentation_for(&doc, &plain).unwrap();
        warm.default_presentation(&doc);

        // Structural edits: removing the X-ray renumbers components, then
        // a global operation grows the net. Old extensions are now stale.
        let remap = doc.remove_component(xray, 2).unwrap();
        let ct = remap[ct.idx()].expect("CT survives the removal");
        plain.rebase(&remap);
        doc.add_global_operation(ct, 0, "segmentation").unwrap();

        // Extension built against the *post-edit* net.
        let mut ext_session = ViewerSession::new("dr-a");
        ext_session
            .choose(
                &doc,
                ViewerChoice {
                    component: ct,
                    form: 1,
                },
            )
            .unwrap();
        ext_session
            .apply_local_operation(&doc, ct, 1, "zoom")
            .unwrap();

        let from_warm = warm.presentation_for(&doc, &ext_session).unwrap();
        let cold = PresentationEngine::new();
        let from_cold = cold.presentation_for(&doc, &ext_session).unwrap();
        assert_eq!(
            from_warm, from_cold,
            "warm caches must not leak into the extension full sweep"
        );
        // One document-global derived variable plus the session-local one.
        assert_eq!(from_warm.derived_states().len(), 2);

        // Base-component forms agree with the incremental (cached)
        // non-extension path for the same choices and context.
        plain
            .choose(
                &doc,
                ViewerChoice {
                    component: ct,
                    form: 1,
                },
            )
            .unwrap();
        let incremental = warm.presentation_for(&doc, &plain).unwrap();
        assert_eq!(from_warm.forms(), incremental.forms());
        assert_eq!(
            (0..doc.num_components())
                .map(|i| from_warm.is_visible(ComponentId(i as u32)))
                .collect::<Vec<_>>(),
            (0..doc.num_components())
                .map(|i| incremental.is_visible(ComponentId(i as u32)))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn tuning_variable_conditions_presentation() {
        let (mut doc, _, ct, _) = medical_doc();
        let bw = doc
            .add_tuning_variable("bandwidth", &["high", "low"])
            .unwrap();
        // Under low bandwidth the author prefers the CT hidden.
        doc.author_parents_raw(ct, &[bw]).unwrap();
        doc.author_preference_raw(ct, &[(bw, Value(0))], &[Value(0), Value(1), Value(2)])
            .unwrap();
        doc.author_preference_raw(ct, &[(bw, Value(1))], &[Value(2), Value(0), Value(1)])
            .unwrap();
        doc.validate().unwrap();
        let engine = PresentationEngine::new();
        let mut s = ViewerSession::new("dr-a");
        s.set_context(bw, Value(1));
        let p = engine.presentation_for(&doc, &s).unwrap();
        assert_eq!(p.form(ct), 2, "CT hidden under low bandwidth");
        s.set_context(bw, Value(0));
        let p = engine.presentation_for(&doc, &s).unwrap();
        assert_eq!(p.form(ct), 0);
    }

    #[test]
    fn transfer_bytes_counts_visible_forms_only() {
        let (doc, _, ct, xray) = medical_doc();
        let engine = PresentationEngine::new();
        let p = engine.default_presentation(&doc);
        // CT flat (500k) + X-ray icon (4k); composites cost 0.
        assert_eq!(p.transfer_bytes(&doc), 504_000);
        let mut s = ViewerSession::new("dr-a");
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 2,
            },
        )
        .unwrap();
        let p = engine.presentation_for(&doc, &s).unwrap();
        // CT hidden, X-ray flat.
        assert_eq!(p.transfer_bytes(&doc), 250_000);
        let _ = xray;
    }

    #[test]
    fn presentation_diff_is_minimal() {
        let (doc, _, ct, xray) = medical_doc();
        let engine = PresentationEngine::new();
        let before = engine.default_presentation(&doc);
        // No change → empty diff.
        assert!(before.diff(&before).is_empty());
        let mut s = ViewerSession::new("dr-a");
        s.choose(
            &doc,
            ViewerChoice {
                component: ct,
                form: 2,
            },
        )
        .unwrap();
        let after = engine.presentation_for(&doc, &s).unwrap();
        let delta = before.diff(&after);
        // Exactly the CT (hidden now) and the X-ray (icon → flat) changed.
        let changed: Vec<ComponentId> = delta.iter().map(|d| d.component).collect();
        assert_eq!(changed, vec![ct, xray]);
        let ct_delta = delta.iter().find(|d| d.component == ct).unwrap();
        assert!(!ct_delta.now_visible);
        // Delta transfer: only the X-ray's flat form (250 KB) moves; the
        // hidden CT costs nothing.
        assert_eq!(before.delta_transfer_bytes(&after, &doc), 250_000);
        // A full refresh would have cost the whole presentation.
        assert!(after.transfer_bytes(&doc) >= 250_000);
    }

    #[test]
    fn render_lists_visible_components() {
        let (doc, ..) = medical_doc();
        let engine = PresentationEngine::new();
        let p = engine.default_presentation(&doc);
        let text = p.render(&doc);
        assert!(text.contains("[record]"));
        assert!(text.contains("CT: flat"));
        assert!(text.contains("X-ray: icon"));
    }
}
