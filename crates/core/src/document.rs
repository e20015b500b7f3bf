//! The multimedia document model (paper, Sections 4 and 5.1).
//!
//! A multimedia document is a hierarchical, tree-like structure of
//! *components*: internal nodes are `CompositeMultimediaComponent`s (which
//! can only be *presented* or *hidden* — a binary domain), leaves are
//! `PrimitiveMultimediaComponent`s whose domain is an arbitrary list of
//! `MMPresentation` alternatives (flat image, segmented image, icon, text,
//! audio clip, hidden, ...). The document carries a [`CpNet`] whose variable
//! `i` is component `i`; the CP-net's conditional preference tables encode
//! the *author's* knowledge of how the content should be shown.
//!
//! Construction keeps the two structures in lock-step: adding a component
//! adds a CP-net variable with a sensible default preference (prefer the
//! first form when the hierarchy parent is presented, prefer the hidden form
//! — if one exists — when the parent is hidden); authors then override rows
//! through [`MultimediaDocument::author_parents`] and
//! [`MultimediaDocument::author_preference`].

use crate::cpnet::{CpNet, PreferenceNet, Value, VarId};
use crate::error::{CoreError, Result};
use rcmo_obs::wire::{Reader, Writer};

/// Identifier of a component within one document (a dense index; component
/// `i` is CP-net variable `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

impl ComponentId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }

    /// The CP-net variable carrying this component's presentation domain.
    #[inline]
    pub fn var(self) -> VarId {
        VarId(self.0)
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmp{}", self.0)
    }
}

/// Where a component's actual media bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MediaRef {
    /// No payload (structural nodes, test results rendered from metadata).
    None,
    /// Payload carried inline with the document.
    Inline(Vec<u8>),
    /// Payload stored in the multimedia database; the id is the row id in
    /// the per-type object table (see `rcmo-mediadb`).
    Stored {
        /// Media type name as registered in `MULTIMEDIA_OBJECTS_TABLE`.
        media_type: String,
        /// Row id within that type's object table.
        object_id: u64,
    },
}

impl MediaRef {
    /// Size of inline payload, if any.
    pub fn inline_len(&self) -> usize {
        match self {
            MediaRef::Inline(b) => b.len(),
            _ => 0,
        }
    }
}

/// The kind of one presentation alternative (`MMPresentation` subclasses in
/// the paper's Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormKind {
    /// The component is not shown at all.
    Hidden,
    /// Shown as a small icon that can be expanded.
    Icon,
    /// Full flat rendering (plain image / full text / full player).
    Flat,
    /// Segmented rendering of an image.
    Segmented,
    /// Image at a reduced resolution level (0 = full resolution; each level
    /// halves both dimensions — see `rcmo-codec`).
    Resolution(u8),
    /// Text rendering (e.g. a transcript of an audio fragment).
    Text,
    /// Audio playback.
    Audio,
    /// Anything else; the string names the renderer.
    Custom(String),
}

/// One presentation alternative of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresentationForm {
    /// Display name ("flat", "segmented", "icon", ...).
    pub name: String,
    /// Renderer category.
    pub kind: FormKind,
    /// Bytes that must reach the client to render this form (drives the
    /// prefetch planner and the bandwidth-aware presentation policy).
    pub cost_bytes: u64,
}

impl PresentationForm {
    /// Convenience constructor.
    pub fn new(name: &str, kind: FormKind, cost_bytes: u64) -> Self {
        PresentationForm {
            name: name.to_string(),
            kind,
            cost_bytes,
        }
    }

    /// The canonical hidden form (zero transfer cost).
    pub fn hidden() -> Self {
        PresentationForm::new("hidden", FormKind::Hidden, 0)
    }
}

/// Composite vs. primitive (Figure 6's two `MultimediaComponent` subclasses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// Internal node; binary domain (presented / hidden).
    Composite,
    /// Leaf node; arbitrary presentation domain.
    Primitive,
}

/// Domain index of a composite's "presented" value.
pub const COMPOSITE_PRESENTED: Value = Value(0);
/// Domain index of a composite's "hidden" value.
pub const COMPOSITE_HIDDEN: Value = Value(1);

#[derive(Debug, Clone)]
struct ComponentNode {
    name: String,
    parent: Option<ComponentId>,
    children: Vec<ComponentId>,
    kind: ComponentKind,
    media: MediaRef,
    forms: Vec<PresentationForm>,
}

/// A variable of the document's CP-net that is *not* a component: the
/// derived variables created when a viewer performs an operation on a
/// component (paper, Section 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedVar {
    /// The CP-net variable id.
    pub var: VarId,
    /// The component the operation was performed on.
    pub component: ComponentId,
    /// The operation name ("segmentation", "zoom", ...).
    pub operation: String,
    /// The component's form index at the time of the operation (the
    /// trigger value of the derived CPT).
    pub trigger_form: usize,
}

/// A hierarchically structured multimedia document plus its author-preference
/// CP-network (the `MultimediaDocument` class of Figure 6).
#[derive(Debug, Clone)]
pub struct MultimediaDocument {
    title: String,
    nodes: Vec<ComponentNode>,
    net: CpNet,
    derived: Vec<DerivedVar>,
}

impl MultimediaDocument {
    /// Creates a document whose root is a composite named `title`.
    ///
    /// The root is unconditionally preferred presented.
    pub fn new(title: &str) -> Self {
        let mut net = CpNet::new();
        let root_var = net
            .add_variable(title, &["presented", "hidden"])
            .expect("binary domain is valid");
        net.set_unconditional(root_var, &[COMPOSITE_PRESENTED, COMPOSITE_HIDDEN])
            .expect("identity order is valid");
        MultimediaDocument {
            title: title.to_string(),
            nodes: vec![ComponentNode {
                name: title.to_string(),
                parent: None,
                children: Vec::new(),
                kind: ComponentKind::Composite,
                media: MediaRef::None,
                forms: vec![
                    PresentationForm::new("presented", FormKind::Flat, 0),
                    PresentationForm::hidden(),
                ],
            }],
            net,
            derived: Vec::new(),
        }
    }

    /// The document title (the root component's name).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The root component.
    pub fn root(&self) -> ComponentId {
        ComponentId(0)
    }

    /// Number of components (excluding derived operation variables).
    pub fn num_components(&self) -> usize {
        self.nodes.len()
    }

    /// The underlying CP-network (components plus derived variables).
    pub fn net(&self) -> &CpNet {
        &self.net
    }

    /// Derived (operation) variables currently merged into the global net.
    pub fn derived_vars(&self) -> &[DerivedVar] {
        &self.derived
    }

    fn node(&self, c: ComponentId) -> Result<&ComponentNode> {
        self.nodes
            .get(c.idx())
            .ok_or(CoreError::UnknownComponent(c.0))
    }

    /// Component display name.
    pub fn name(&self, c: ComponentId) -> Result<&str> {
        Ok(&self.node(c)?.name)
    }

    /// Composite or primitive.
    pub fn kind(&self, c: ComponentId) -> Result<ComponentKind> {
        Ok(self.node(c)?.kind)
    }

    /// The component's media payload reference.
    pub fn media(&self, c: ComponentId) -> Result<&MediaRef> {
        Ok(&self.node(c)?.media)
    }

    /// Presentation alternatives (the component's domain).
    pub fn forms(&self, c: ComponentId) -> Result<&[PresentationForm]> {
        Ok(&self.node(c)?.forms)
    }

    /// Children in insertion order.
    pub fn children(&self, c: ComponentId) -> Result<&[ComponentId]> {
        Ok(&self.node(c)?.children)
    }

    /// The hierarchy parent (`None` for the root).
    pub fn parent(&self, c: ComponentId) -> Result<Option<ComponentId>> {
        Ok(self.node(c)?.parent)
    }

    /// Index of the component's hidden form, if it has one.
    pub fn hidden_form(&self, c: ComponentId) -> Result<Option<usize>> {
        Ok(self
            .node(c)?
            .forms
            .iter()
            .position(|f| f.kind == FormKind::Hidden))
    }

    /// Looks a component up by name (first match in id order).
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| ComponentId(i as u32))
    }

    /// Depth-first (pre-order) traversal from the root.
    pub fn iter_depth_first(&self) -> Vec<ComponentId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(c) = stack.pop() {
            out.push(c);
            let node = &self.nodes[c.idx()];
            for &child in node.children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Adds an internal (composite) component under `parent`.
    pub fn add_composite(&mut self, parent: ComponentId, name: &str) -> Result<ComponentId> {
        self.add_node(
            parent,
            name,
            ComponentKind::Composite,
            MediaRef::None,
            vec![
                PresentationForm::new("presented", FormKind::Flat, 0),
                PresentationForm::hidden(),
            ],
        )
    }

    /// Adds a leaf (primitive) component under `parent` with the given
    /// presentation alternatives (at least one).
    pub fn add_primitive(
        &mut self,
        parent: ComponentId,
        name: &str,
        media: MediaRef,
        forms: Vec<PresentationForm>,
    ) -> Result<ComponentId> {
        if forms.is_empty() {
            return Err(CoreError::BadStructure(format!(
                "primitive '{name}' needs at least one presentation form"
            )));
        }
        self.add_node(parent, name, ComponentKind::Primitive, media, forms)
    }

    fn add_node(
        &mut self,
        parent: ComponentId,
        name: &str,
        kind: ComponentKind,
        media: MediaRef,
        forms: Vec<PresentationForm>,
    ) -> Result<ComponentId> {
        let pnode = self.node(parent)?;
        if pnode.kind != ComponentKind::Composite {
            return Err(CoreError::BadStructure(format!(
                "cannot add '{name}' under primitive component '{}'",
                pnode.name
            )));
        }
        if !self.derived.is_empty() {
            // Keeping component ids == variable ids requires components to
            // precede derived variables; the presentation engine re-merges
            // derived variables after structural edits.
            return Err(CoreError::UpdateRejected(
                "flush derived variables before structural edits (see PresentationEngine::rebase)"
                    .to_string(),
            ));
        }
        let id = ComponentId(self.nodes.len() as u32);
        let form_names: Vec<&str> = forms.iter().map(|f| f.name.as_str()).collect();
        let var = self.net.add_variable(name, &form_names)?;
        debug_assert_eq!(var, id.var());
        // Default author preference: condition on the hierarchy parent.
        self.net.set_parents(var, &[parent.var()])?;
        let hidden = forms.iter().position(|f| f.kind == FormKind::Hidden);
        let ndom = forms.len() as u16;
        let default_order: Vec<Value> = (0..ndom).map(Value).collect();
        let hidden_first: Vec<Value> = match hidden {
            Some(h) => {
                let mut order = vec![Value(h as u16)];
                order.extend((0..ndom).map(Value).filter(|v| v.idx() != h));
                order
            }
            None => default_order.clone(),
        };
        self.net
            .set_preference(var, &[(parent.var(), COMPOSITE_PRESENTED)], &default_order)?;
        self.net
            .set_preference(var, &[(parent.var(), COMPOSITE_HIDDEN)], &hidden_first)?;
        self.nodes.push(ComponentNode {
            name: name.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            kind,
            media,
            forms,
        });
        self.nodes[parent.idx()].children.push(id);
        Ok(id)
    }

    /// Re-authors the CP-net parent set of `c` (which other components'
    /// presentation affects the preference over `c`'s forms). Resets `c`'s
    /// CPT rows to defaults; author every row with
    /// [`author_preference`](Self::author_preference) afterwards.
    pub fn author_parents(&mut self, c: ComponentId, parents: &[ComponentId]) -> Result<()> {
        self.node(c)?;
        for &p in parents {
            self.node(p)?;
        }
        let vars: Vec<VarId> = parents.iter().map(|p| p.var()).collect();
        self.net.set_parents(c.var(), &vars)?;
        Ok(())
    }

    /// Authors one CPT row: under `assignment` (form index per CP-net parent
    /// component), the preference over `c`'s forms is `order` (form indices,
    /// most preferred first).
    pub fn author_preference(
        &mut self,
        c: ComponentId,
        assignment: &[(ComponentId, usize)],
        order: &[usize],
    ) -> Result<()> {
        self.node(c)?;
        let pairs: Vec<(VarId, Value)> = assignment
            .iter()
            .map(|&(p, form)| (p.var(), Value(form as u16)))
            .collect();
        let values: Vec<Value> = order.iter().map(|&f| Value(f as u16)).collect();
        if pairs.is_empty() {
            self.net.set_unconditional(c.var(), &values)
        } else {
            self.net.set_preference(c.var(), &pairs, &values)
        }
    }

    /// Removes a leaf component (no children), fixing its value to
    /// `fix_form` in any CPT that conditioned on it (Section 4.2's removal
    /// policy). All component ids greater than `c` shift down by one; the
    /// returned vector maps old ids to new ids (`None` for the removed one).
    pub fn remove_component(
        &mut self,
        c: ComponentId,
        fix_form: usize,
    ) -> Result<Vec<Option<ComponentId>>> {
        let node = self.node(c)?;
        if node.parent.is_none() {
            return Err(CoreError::UpdateRejected(
                "cannot remove the document root".to_string(),
            ));
        }
        if !node.children.is_empty() {
            return Err(CoreError::UpdateRejected(format!(
                "component '{}' still has {} children",
                node.name,
                node.children.len()
            )));
        }
        if !self.derived.is_empty() {
            return Err(CoreError::UpdateRejected(
                "flush derived variables before structural edits".to_string(),
            ));
        }
        if fix_form >= node.forms.len() {
            return Err(CoreError::ValueOutOfRange {
                var: c.0,
                value: fix_form as u16,
                domain: node.forms.len(),
            });
        }
        let parent = node.parent.expect("checked above");
        self.net.remove_variable(c.var(), Value(fix_form as u16))?;
        self.nodes[parent.idx()].children.retain(|&ch| ch != c);
        self.nodes.remove(c.idx());
        let removed = c.idx();
        let shift = |id: ComponentId| -> ComponentId {
            if id.idx() > removed {
                ComponentId(id.0 - 1)
            } else {
                id
            }
        };
        for n in &mut self.nodes {
            if let Some(p) = n.parent {
                n.parent = Some(shift(p));
            }
            for ch in &mut n.children {
                *ch = shift(*ch);
            }
        }
        let old_len = self.nodes.len() + 1;
        Ok((0..old_len as u32)
            .map(|i| {
                if i as usize == removed {
                    None
                } else {
                    Some(shift(ComponentId(i)))
                }
            })
            .collect())
    }

    /// Merges a derived operation variable into the **global** CP-net
    /// (Section 4.2: the viewer "decided the result of her operation
    /// emphasises something important to most potential viewers").
    ///
    /// Returns the new variable's id. The variable prefers the operated form
    /// exactly when component `c` is presented in `trigger_form`.
    pub fn add_global_operation(
        &mut self,
        c: ComponentId,
        trigger_form: usize,
        operation: &str,
    ) -> Result<VarId> {
        let node = self.node(c)?;
        if trigger_form >= node.forms.len() {
            return Err(CoreError::ValueOutOfRange {
                var: c.0,
                value: trigger_form as u16,
                domain: node.forms.len(),
            });
        }
        let name = format!("{}'{}", node.name, operation);
        let applied = format!("{operation} applied");
        let var = self.net.add_derived_variable(
            c.var(),
            Value(trigger_form as u16),
            &name,
            &applied,
            "plain",
        )?;
        self.derived.push(DerivedVar {
            var,
            component: c,
            operation: operation.to_string(),
            trigger_form,
        });
        Ok(var)
    }

    /// Adds a *tuning variable* (paper, Section 4.4, first alternative): a
    /// free CP-net variable that is not a component — e.g. measured
    /// bandwidth bands or client buffer classes — on which component
    /// preferences can then be conditioned via
    /// [`author_parents_raw`](Self::author_parents_raw). Its unconditional
    /// preference order is the given level order (first = assumed default).
    pub fn add_tuning_variable(&mut self, name: &str, levels: &[&str]) -> Result<VarId> {
        let var = self.net.add_variable(name, levels)?;
        let order: Vec<Value> = (0..levels.len() as u16).map(Value).collect();
        self.net.set_unconditional(var, &order)?;
        self.derived.push(DerivedVar {
            var,
            component: self.root(),
            operation: format!("tuning:{name}"),
            trigger_form: 0,
        });
        Ok(var)
    }

    /// Automatically conditions every expensive component on a tuning
    /// variable — the paper's §4.4 first alternative, where "model extension
    /// can be done automatically, according to some predefined ordering
    /// templates".
    ///
    /// For each primitive whose cheapest↔dearest form spread exceeds
    /// `min_spread_bytes`, the component's CPT is extended with `tuning` as
    /// an additional parent:
    /// * under tuning level 0 (the unconstrained band) every row keeps the
    ///   author's original ranking;
    /// * under each constrained level `k ≥ 1`, *visible* forms are
    ///   reordered by transfer cost ascending (ties broken by the author's
    ///   rank) and hidden forms come last — the template degrades to cheaper
    ///   renditions before suppressing content altogether.
    ///
    /// Returns the components that were re-authored.
    pub fn auto_condition_on_tuning(
        &mut self,
        tuning: VarId,
        min_spread_bytes: u64,
    ) -> Result<Vec<ComponentId>> {
        if tuning.idx() < self.num_components() || tuning.idx() >= self.net.len() {
            return Err(CoreError::UnknownVariable(tuning.0));
        }
        let levels = self.net.domain_size(tuning);
        let mut touched = Vec::new();
        for i in 0..self.nodes.len() {
            let c = ComponentId(i as u32);
            if self.nodes[i].kind != ComponentKind::Primitive {
                continue;
            }
            let costs: Vec<u64> = self.nodes[i].forms.iter().map(|f| f.cost_bytes).collect();
            let spread = costs.iter().max().unwrap_or(&0) - costs.iter().min().unwrap_or(&0);
            if spread < min_spread_bytes {
                continue;
            }
            // Snapshot the existing CPT.
            let old_parents = self.net.parents(c.var()).to_vec();
            if old_parents.contains(&tuning) {
                continue; // already conditioned
            }
            let old_table = self.net.table(c.var())?.clone_rows();
            let mut new_parents = old_parents.clone();
            new_parents.push(tuning);
            self.net.set_parents(c.var(), &new_parents)?;
            for (assignment, ranking) in &old_table {
                // Level 0: the author's order, untouched.
                let mut pairs: Vec<(VarId, Value)> = old_parents
                    .iter()
                    .copied()
                    .zip(assignment.iter().copied())
                    .collect();
                pairs.push((tuning, Value(0)));
                self.net.set_preference(c.var(), &pairs, ranking.order())?;
                // Constrained levels: cheapest visible form first (author
                // rank as tiebreak); hiding is the last resort.
                let hidden: Vec<bool> = self.nodes[i]
                    .forms
                    .iter()
                    .map(|f| f.kind == FormKind::Hidden)
                    .collect();
                let mut by_cost: Vec<Value> = ranking.order().to_vec();
                by_cost.sort_by_key(|v| (hidden[v.idx()], costs[v.idx()], ranking.rank_of(*v)));
                for level in 1..levels as u16 {
                    let mut pairs: Vec<(VarId, Value)> = old_parents
                        .iter()
                        .copied()
                        .zip(assignment.iter().copied())
                        .collect();
                    pairs.push((tuning, Value(level)));
                    self.net.set_preference(c.var(), &pairs, &by_cost)?;
                }
            }
            touched.push(c);
        }
        Ok(touched)
    }

    /// Raw variant of [`author_parents`](Self::author_parents) accepting any
    /// CP-net variables (components, derived variables, tuning variables).
    pub fn author_parents_raw(&mut self, c: ComponentId, parents: &[VarId]) -> Result<()> {
        self.node(c)?;
        self.net.set_parents(c.var(), parents)
    }

    /// Raw variant of [`author_preference`](Self::author_preference) over
    /// CP-net variables and values.
    pub fn author_preference_raw(
        &mut self,
        c: ComponentId,
        assignment: &[(VarId, Value)],
        order: &[Value],
    ) -> Result<()> {
        self.node(c)?;
        if assignment.is_empty() {
            self.net.set_unconditional(c.var(), order)
        } else {
            self.net.set_preference(c.var(), assignment, order)
        }
    }

    /// Total inline payload bytes across all components.
    pub fn total_inline_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.media.inline_len()).sum()
    }

    /// Sum of the worst-case (most expensive form) transfer cost per
    /// component — an upper bound used to size client buffers.
    pub fn max_transfer_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.forms.iter().map(|f| f.cost_bytes).max().unwrap_or(0))
            .sum()
    }

    /// Validates structural invariants and the CP-net:
    /// components form a tree rooted at 0; composite domains are exactly
    /// presented/hidden; every component's CP-net domain size equals its
    /// form count; the net validates.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(CoreError::BadStructure("document has no root".to_string()));
        }
        if self.nodes[0].parent.is_some() {
            return Err(CoreError::BadStructure("root has a parent".to_string()));
        }
        let mut seen = vec![false; self.nodes.len()];
        for c in self.iter_depth_first() {
            if seen[c.idx()] {
                return Err(CoreError::BadStructure(format!(
                    "component {c} reachable twice"
                )));
            }
            seen[c.idx()] = true;
        }
        if seen.iter().any(|&s| !s) {
            return Err(CoreError::BadStructure(
                "unreachable components exist".to_string(),
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let c = ComponentId(i as u32);
            match n.kind {
                ComponentKind::Composite => {
                    if n.forms.len() != 2
                        || n.forms[1].kind != FormKind::Hidden
                        || n.forms[0].kind == FormKind::Hidden
                    {
                        return Err(CoreError::BadStructure(format!(
                            "composite '{}' must have exactly presented+hidden forms",
                            n.name
                        )));
                    }
                }
                ComponentKind::Primitive => {
                    if !n.children.is_empty() {
                        return Err(CoreError::BadStructure(format!(
                            "primitive '{}' has children",
                            n.name
                        )));
                    }
                }
            }
            if self.net.domain_size(c.var()) != n.forms.len() {
                return Err(CoreError::BadStructure(format!(
                    "component '{}' has {} forms but CP-net domain {}",
                    n.name,
                    n.forms.len(),
                    self.net.domain_size(c.var())
                )));
            }
            for ch in &n.children {
                if self.node(*ch)?.parent != Some(c) {
                    return Err(CoreError::BadStructure(format!(
                        "child link {ch} does not point back to {c}"
                    )));
                }
            }
        }
        self.net.validate()
    }

    /// Renders the hierarchy as an indented outline (the left pane of the
    /// paper's Figure 5 client GUI).
    pub fn outline(&self) -> String {
        let mut out = String::new();
        self.outline_rec(self.root(), 0, &mut out);
        out
    }

    fn outline_rec(&self, c: ComponentId, depth: usize, out: &mut String) {
        let node = &self.nodes[c.idx()];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let tag = match node.kind {
            ComponentKind::Composite => "+",
            ComponentKind::Primitive => "-",
        };
        out.push_str(&format!(
            "{tag} {} ({} forms)\n",
            node.name,
            node.forms.len()
        ));
        for &ch in &node.children {
            self.outline_rec(ch, depth + 1, out);
        }
    }

    /// Serialises the document (structure + CP-net) to bytes for BLOB
    /// storage in the multimedia database.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(1024);
        w.bytes(b"MMD1");
        w.str16(&self.title);
        w.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            w.str16(&n.name);
            w.u32(n.parent.map(|p| p.0 + 1).unwrap_or(0));
            w.u8(match n.kind {
                ComponentKind::Composite => 0,
                ComponentKind::Primitive => 1,
            });
            match &n.media {
                MediaRef::None => w.u8(0),
                MediaRef::Inline(bytes) => {
                    w.u8(1);
                    w.bytes32(bytes);
                }
                MediaRef::Stored {
                    media_type,
                    object_id,
                } => {
                    w.u8(2);
                    w.str16(media_type);
                    w.u64(*object_id);
                }
            }
            w.u16(n.forms.len() as u16);
            for f in &n.forms {
                w.str16(&f.name);
                write_form_kind(&mut w, &f.kind);
                w.u64(f.cost_bytes);
            }
        }
        w.bytes32(&self.net.to_bytes());
        w.u32(self.derived.len() as u32);
        for d in &self.derived {
            w.u32(d.var.0);
            w.u32(d.component.0);
            w.str16(&d.operation);
            w.u32(d.trigger_form as u32);
        }
        w.into_bytes()
    }

    /// Reconstructs a document serialised with [`to_bytes`](Self::to_bytes)
    /// and re-validates it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        r.magic(b"MMD1")?;
        let title = r.str16()?;
        // Smallest component: name, parent, kind, media tag, form count.
        let ncomponents = r.count32(2 + 4 + 1 + 1 + 2)?;
        let mut nodes = Vec::with_capacity(ncomponents);
        for _ in 0..ncomponents {
            let name = r.str16()?;
            let parent = r.u32()?.checked_sub(1).map(ComponentId);
            let kind = match r.u8()? {
                0 => ComponentKind::Composite,
                1 => ComponentKind::Primitive,
                k => return Err(CoreError::Codec(format!("bad component kind {k}"))),
            };
            let media = match r.u8()? {
                0 => MediaRef::None,
                1 => MediaRef::Inline(r.bytes32()?.to_vec()),
                2 => MediaRef::Stored {
                    media_type: r.str16()?,
                    object_id: r.u64()?,
                },
                m => return Err(CoreError::Codec(format!("bad media tag {m}"))),
            };
            // Smallest form: name, kind tag, cost.
            let nforms = r.count16(2 + 1 + 8)?;
            let mut forms = Vec::with_capacity(nforms);
            for _ in 0..nforms {
                forms.push(PresentationForm {
                    name: r.str16()?,
                    kind: read_form_kind(&mut r)?,
                    cost_bytes: r.u64()?,
                });
            }
            nodes.push(ComponentNode {
                name,
                parent,
                children: Vec::new(),
                kind,
                media,
                forms,
            });
        }
        // Rebuild child lists from parent links, preserving id order.
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                if p.idx() >= nodes.len() {
                    return Err(CoreError::Codec(format!("dangling parent {p}")));
                }
                let child = ComponentId(i as u32);
                nodes[p.idx()].children.push(child);
            }
        }
        let net = CpNet::from_bytes(r.bytes32()?)?;
        if net.len() < nodes.len() {
            return Err(CoreError::Codec(
                "fewer CP-net variables than components".into(),
            ));
        }
        // A derived variable: var, component, operation, trigger form.
        let nderived = r.count32(4 + 4 + 2 + 4)?;
        let mut derived = Vec::with_capacity(nderived);
        for _ in 0..nderived {
            derived.push(DerivedVar {
                var: VarId(r.u32()?),
                component: ComponentId(r.u32()?),
                operation: r.str16()?,
                trigger_form: r.u32()? as usize,
            });
        }
        r.finish()?;
        let doc = MultimediaDocument {
            title,
            nodes,
            net,
            derived,
        };
        doc.validate()?;
        Ok(doc)
    }
}

fn write_form_kind(w: &mut Writer, kind: &FormKind) {
    match kind {
        FormKind::Hidden => w.u8(0),
        FormKind::Icon => w.u8(1),
        FormKind::Flat => w.u8(2),
        FormKind::Segmented => w.u8(3),
        FormKind::Resolution(level) => {
            w.u8(4);
            w.u8(*level);
        }
        FormKind::Text => w.u8(5),
        FormKind::Audio => w.u8(6),
        FormKind::Custom(name) => {
            w.u8(7);
            w.str16(name);
        }
    }
}

fn read_form_kind(r: &mut Reader<'_>) -> Result<FormKind> {
    Ok(match r.u8()? {
        0 => FormKind::Hidden,
        1 => FormKind::Icon,
        2 => FormKind::Flat,
        3 => FormKind::Segmented,
        4 => FormKind::Resolution(r.u8()?),
        5 => FormKind::Text,
        6 => FormKind::Audio,
        7 => FormKind::Custom(r.str16()?),
        k => return Err(CoreError::Codec(format!("bad form kind {k}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> (MultimediaDocument, ComponentId, ComponentId, ComponentId) {
        let mut doc = MultimediaDocument::new("Patient record");
        let images = doc.add_composite(doc.root(), "Images").unwrap();
        let ct = doc
            .add_primitive(
                images,
                "CT image",
                MediaRef::Stored {
                    media_type: "Image".to_string(),
                    object_id: 7,
                },
                vec![
                    PresentationForm::new("flat", FormKind::Flat, 512 * 1024),
                    PresentationForm::new("segmented", FormKind::Segmented, 600 * 1024),
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
                    PresentationForm::new("flat", FormKind::Flat, 256 * 1024),
                    PresentationForm::new("icon", FormKind::Icon, 4 * 1024),
                    PresentationForm::hidden(),
                ],
            )
            .unwrap();
        (doc, images, ct, xray)
    }

    #[test]
    fn new_document_validates() {
        let doc = MultimediaDocument::new("doc");
        doc.validate().unwrap();
        assert_eq!(doc.num_components(), 1);
        assert_eq!(doc.kind(doc.root()).unwrap(), ComponentKind::Composite);
    }

    #[test]
    fn build_hierarchy_and_validate() {
        let (doc, images, ct, xray) = sample_doc();
        doc.validate().unwrap();
        assert_eq!(doc.children(doc.root()).unwrap(), &[images]);
        assert_eq!(doc.children(images).unwrap(), &[ct, xray]);
        assert_eq!(doc.parent(ct).unwrap(), Some(images));
        assert_eq!(doc.num_components(), 4);
        assert_eq!(doc.iter_depth_first(), vec![doc.root(), images, ct, xray]);
    }

    #[test]
    fn cannot_add_under_primitive() {
        let (mut doc, _, ct, _) = sample_doc();
        assert!(matches!(
            doc.add_composite(ct, "bad"),
            Err(CoreError::BadStructure(_))
        ));
    }

    #[test]
    fn primitive_needs_forms() {
        let mut doc = MultimediaDocument::new("doc");
        assert!(doc
            .add_primitive(doc.root(), "x", MediaRef::None, vec![])
            .is_err());
    }

    #[test]
    fn default_preference_hides_under_hidden_parent() {
        let (doc, images, ct, _) = sample_doc();
        // Force the Images composite hidden; the CT's best response is its
        // hidden form by the default authoring policy.
        let mut ev = crate::cpnet::PartialAssignment::empty(doc.num_components());
        ev.set(images.var(), COMPOSITE_HIDDEN);
        let o = doc.net().optimal_completion(&ev);
        let hidden = doc.hidden_form(ct).unwrap().unwrap();
        assert_eq!(o[ct.var().idx()], Value(hidden as u16));
    }

    #[test]
    fn author_preference_overrides_default() {
        let (mut doc, images, ct, xray) = sample_doc();
        // Author: when the CT is segmented, prefer the X-ray iconified.
        doc.author_parents(xray, &[images, ct]).unwrap();
        for ct_form in 0..3 {
            let order: &[usize] = if ct_form == 1 { &[1, 0, 2] } else { &[0, 1, 2] };
            doc.author_preference(xray, &[(images, 0), (ct, ct_form)], order)
                .unwrap();
            doc.author_preference(xray, &[(images, 1), (ct, ct_form)], &[2, 0, 1])
                .unwrap();
        }
        doc.validate().unwrap();
        let mut ev = crate::cpnet::PartialAssignment::empty(doc.num_components());
        ev.set(ct.var(), Value(1)); // viewer chose segmented CT
        let o = doc.net().optimal_completion(&ev);
        assert_eq!(o[xray.var().idx()], Value(1), "x-ray iconified");
    }

    #[test]
    fn remove_leaf_component_shifts_ids() {
        let (mut doc, images, ct, xray) = sample_doc();
        let remap = doc.remove_component(ct, 2).unwrap();
        doc.validate().unwrap();
        assert_eq!(doc.num_components(), 3);
        assert_eq!(remap[ct.idx()], None);
        assert_eq!(remap[xray.idx()], Some(ComponentId(xray.0 - 1)));
        assert_eq!(remap[images.idx()], Some(images));
        let new_xray = remap[xray.idx()].unwrap();
        assert_eq!(doc.name(new_xray).unwrap(), "X-ray");
        assert_eq!(doc.children(images).unwrap(), &[new_xray]);
    }

    #[test]
    fn remove_rejects_root_and_internal() {
        let (mut doc, images, _, _) = sample_doc();
        assert!(doc.remove_component(doc.root(), 0).is_err());
        assert!(doc.remove_component(images, 0).is_err());
    }

    #[test]
    fn global_operation_adds_derived_variable() {
        let (mut doc, _, ct, _) = sample_doc();
        let var = doc.add_global_operation(ct, 0, "segmentation").unwrap();
        assert_eq!(doc.derived_vars().len(), 1);
        assert_eq!(doc.net().len(), 5);
        doc.validate().unwrap();
        // When the CT shows flat (form 0, the trigger), the derived variable
        // prefers "applied".
        let mut ev = crate::cpnet::PartialAssignment::empty(doc.net().len());
        ev.set(ct.var(), Value(0));
        let o = doc.net().optimal_completion(&ev);
        assert_eq!(o[var.idx()], Value(0));
    }

    #[test]
    fn structural_edit_rejected_with_pending_derived_vars() {
        let (mut doc, images, ct, _) = sample_doc();
        doc.add_global_operation(ct, 0, "zoom").unwrap();
        assert!(matches!(
            doc.add_composite(images, "More"),
            Err(CoreError::UpdateRejected(_))
        ));
        assert!(matches!(
            doc.remove_component(ct, 0),
            Err(CoreError::UpdateRejected(_))
        ));
    }

    #[test]
    fn document_roundtrip() {
        let (mut doc, _, ct, _) = sample_doc();
        doc.add_global_operation(ct, 1, "segmentation").unwrap();
        let bytes = doc.to_bytes();
        let back = MultimediaDocument::from_bytes(&bytes).unwrap();
        assert_eq!(back.title(), doc.title());
        assert_eq!(back.num_components(), doc.num_components());
        assert_eq!(back.derived_vars(), doc.derived_vars());
        assert_eq!(back.net().optimal_outcome(), doc.net().optimal_outcome());
        assert_eq!(back.outline(), doc.outline());
    }

    #[test]
    fn roundtrip_rejects_corruption() {
        let (doc, ..) = sample_doc();
        let bytes = doc.to_bytes();
        assert!(MultimediaDocument::from_bytes(&bytes[..10]).is_err());
        let mut broken = bytes.clone();
        broken[0] = b'X';
        assert!(MultimediaDocument::from_bytes(&broken).is_err());
    }

    #[test]
    fn outline_renders_hierarchy() {
        let (doc, ..) = sample_doc();
        let outline = doc.outline();
        assert!(outline.contains("+ Patient record"));
        assert!(outline.contains("  + Images"));
        assert!(outline.contains("    - CT image (3 forms)"));
    }

    #[test]
    fn auto_condition_on_tuning_applies_cost_template() {
        let (mut doc, images, ct, xray) = sample_doc();
        let bw = doc
            .add_tuning_variable("bandwidth", &["high", "low"])
            .unwrap();
        let touched = doc.auto_condition_on_tuning(bw, 10_000).unwrap();
        // Both primitives have a large cost spread; composites never touched.
        assert_eq!(touched, vec![ct, xray]);
        doc.validate().unwrap();
        // High bandwidth: the author's original preference survives.
        let mut ev = crate::cpnet::PartialAssignment::empty(doc.net().len());
        ev.set(bw, Value(0));
        ev.set(images.var(), COMPOSITE_PRESENTED);
        let o = doc.net().optimal_completion(&ev);
        assert_eq!(o[ct.var().idx()], Value(0), "flat CT under high bandwidth");
        // Low bandwidth: the cheapest *visible* form wins; the X-ray's
        // 4 KiB icon beats its 256 KiB flat, and hiding stays last.
        ev.set(bw, Value(1));
        let o = doc.net().optimal_completion(&ev);
        assert_eq!(o[xray.var().idx()], Value(1), "icon under low bandwidth");
        // The CT's cheapest visible form is its flat (512 KiB < segmented).
        assert_eq!(o[ct.var().idx()], Value(0));
        // Re-running is a no-op (already conditioned).
        assert!(doc.auto_condition_on_tuning(bw, 10_000).unwrap().is_empty());
        // A bogus tuning id (a component) is rejected.
        assert!(doc.auto_condition_on_tuning(ct.var(), 0).is_err());
    }

    #[test]
    fn auto_condition_skips_small_spreads() {
        let mut doc = MultimediaDocument::new("doc");
        doc.add_primitive(
            doc.root(),
            "note",
            MediaRef::None,
            vec![
                PresentationForm::new("flat", FormKind::Text, 1_000),
                PresentationForm::new("icon", FormKind::Icon, 900),
            ],
        )
        .unwrap();
        let bw = doc.add_tuning_variable("bw", &["high", "low"]).unwrap();
        assert!(doc.auto_condition_on_tuning(bw, 10_000).unwrap().is_empty());
        doc.validate().unwrap();
    }

    #[test]
    fn transfer_byte_accounting() {
        let (doc, ..) = sample_doc();
        assert_eq!(doc.total_inline_bytes(), 0);
        assert_eq!(doc.max_transfer_bytes(), 600 * 1024 + 256 * 1024);
    }
}
