//! Human-readable names for the entities of a trace.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use crate::ids::{EventId, FieldId, LockId, ObjectId, TaskId, ThreadId, ThreadKind};

/// Metadata for one thread of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDecl {
    /// Display name, e.g. `"main"` or `"AsyncTask #1"`.
    pub name: String,
    /// Role of the thread in the runtime.
    pub kind: ThreadKind,
    /// Whether the thread exists at application start (the `Threads` set of
    /// §3) as opposed to being forked dynamically.
    pub initial: bool,
}

/// Interned names for all id spaces of a trace.
///
/// The simulator and framework build a `Names` while generating a trace; the
/// detector and report printers consult it for display only. Every `fresh_*`
/// method mints a new id; every `*_name` method falls back to the id's
/// `Display` form when no name was recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Names {
    threads: Vec<ThreadDecl>,
    tasks: Vec<String>,
    locks: Vec<String>,
    events: Vec<String>,
    fields: Vec<String>,
    field_ids: FieldIndex,
    objects: Vec<String>,
}

impl Names {
    /// Creates an empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new thread and returns its id.
    pub fn fresh_thread(
        &mut self,
        name: impl Into<String>,
        kind: ThreadKind,
        initial: bool,
    ) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadDecl {
            name: name.into(),
            kind,
            initial,
        });
        id
    }

    /// Declares a new task instance and returns its id.
    pub fn fresh_task(&mut self, name: impl Into<String>) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(name.into());
        id
    }

    /// Declares a new lock and returns its id.
    pub fn fresh_lock(&mut self, name: impl Into<String>) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(name.into());
        id
    }

    /// Declares a new environment event and returns its id.
    pub fn fresh_event(&mut self, name: impl Into<String>) -> EventId {
        let id = EventId(self.events.len() as u32);
        self.events.push(name.into());
        id
    }

    /// Interns a field name (`Class.field`), returning the existing id if the
    /// name was seen before.
    pub fn field(&mut self, name: impl AsRef<str>) -> FieldId {
        let name = name.as_ref();
        if let Some(id) = self.field_ids.get(&self.fields, name) {
            return id;
        }
        self.fields.push(name.to_owned());
        self.field_ids.insert(&self.fields);
        FieldId(self.fields.len() as u32 - 1)
    }

    /// Declares a new heap object and returns its id.
    pub fn fresh_object(&mut self, name: impl Into<String>) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(name.into());
        id
    }

    /// The declaration of `thread`, if declared.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadDecl> {
        self.threads.get(thread.index())
    }

    /// Iterates over all declared threads in id order.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, &ThreadDecl)> {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, d)| (ThreadId(i as u32), d))
    }

    /// Number of declared threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of declared task instances.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of declared events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of interned fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Display name of a thread.
    pub fn thread_name(&self, id: ThreadId) -> String {
        self.threads
            .get(id.index())
            .map(|d| d.name.clone())
            .unwrap_or_else(|| id.to_string())
    }

    /// Display name of a task instance.
    pub fn task_name(&self, id: TaskId) -> String {
        self.tasks
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Display name of a lock.
    pub fn lock_name(&self, id: LockId) -> String {
        self.locks
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Display name of an event.
    pub fn event_name(&self, id: EventId) -> String {
        self.events
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Display name of a field.
    pub fn field_name(&self, id: FieldId) -> String {
        self.fields
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Display name of an object.
    pub fn object_name(&self, id: ObjectId) -> String {
        self.objects
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Renders a memory location as `object.Class.field`.
    pub fn loc_name(&self, loc: crate::ids::MemLoc) -> String {
        format!(
            "{}.{}",
            self.object_name(loc.object),
            self.field_name(loc.field)
        )
    }
}

/// The ids of [`Names`]' fields by name, for O(1) interning: an open
/// addressing table over the field list, probed linearly from a randomly
/// keyed SipHash of the name, as names come from outside input. It holds
/// ids, not a second copy of every name, and is rebuilt from the list at
/// double the size once it is half full.
#[derive(Clone, Default)]
struct FieldIndex {
    keys: RandomState,
    /// `id + 1` in each used slot, 0 in an empty one; empty or a power of
    /// two long.
    slots: Vec<u32>,
}

impl FieldIndex {
    /// The slot holding `name`, or else the empty slot where it belongs.
    /// Only whole names are hashed, so their bytes need no terminator.
    fn probe(&self, fields: &[String], name: &str) -> usize {
        let mut hasher = self.keys.build_hasher();
        hasher.write(name.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = hasher.finish() as usize & mask;
        while self.slots[i] != 0 && fields[self.slots[i] as usize - 1] != name {
            i = (i + 1) & mask;
        }
        i
    }

    /// The id of `name` in `fields`, if it is there.
    fn get(&self, fields: &[String], name: &str) -> Option<FieldId> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(fields, name)];
        slot.checked_sub(1).map(FieldId)
    }

    /// Indexes the last of `fields`, which is not indexed yet.
    fn insert(&mut self, fields: &[String]) {
        let unindexed = if 2 * fields.len() > self.slots.len() {
            self.slots = vec![0; (2 * fields.len()).next_power_of_two().max(16)];
            0..fields.len()
        } else {
            fields.len() - 1..fields.len()
        };
        for id in unindexed {
            let i = self.probe(fields, &fields[id]);
            self.slots[i] = id as u32 + 1;
        }
    }
}

/// The slot order depends on the random keys, so it is left out.
impl fmt::Debug for FieldIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FieldIndex").finish_non_exhaustive()
    }
}

/// The index is derived from the field list, which `Names` compares.
impl PartialEq for FieldIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FieldIndex {}

impl fmt::Display for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "threads: {}", self.threads.len())?;
        for (id, d) in self.threads() {
            writeln!(
                f,
                "  {id} = {} ({}{})",
                d.name,
                d.kind,
                if d.initial { ", initial" } else { "" }
            )?;
        }
        writeln!(f, "tasks: {}", self.tasks.len())?;
        writeln!(f, "events: {}", self.events.len())?;
        writeln!(f, "fields: {}", self.fields.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_sequential() {
        let mut n = Names::new();
        assert_eq!(n.fresh_thread("main", ThreadKind::Main, true), ThreadId(0));
        assert_eq!(n.fresh_thread("bg", ThreadKind::App, false), ThreadId(1));
        assert_eq!(n.fresh_task("onCreate"), TaskId(0));
        assert_eq!(n.fresh_lock("mLock"), LockId(0));
        assert_eq!(n.fresh_event("click"), EventId(0));
        assert_eq!(n.fresh_object("DwFileAct-obj"), ObjectId(0));
    }

    #[test]
    fn fields_are_interned_by_name() {
        let mut n = Names::new();
        let a = n.field("Act.isDestroyed");
        let b = n.field("Act.isDestroyed");
        let c = n.field("Act.other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(n.field_count(), 2);
    }

    #[test]
    fn a_repeated_field_name_keeps_its_first_id_among_many() {
        let mut n = Names::new();
        let ids: Vec<FieldId> = (0..3000).map(|i| n.field(format!("C.f{i}"))).collect();
        assert_eq!(ids, (0..3000).map(FieldId).collect::<Vec<_>>());
        assert_eq!(n.field("C.f0"), FieldId(0));
        assert_eq!(n.field("C.f2999"), FieldId(2999));
        assert_eq!(n.field_count(), 3000);
        let mut copy = n.clone();
        assert_eq!(copy.field("C.f1234"), FieldId(1234));
        assert_eq!(copy.field("C.new"), FieldId(3000));
        assert_eq!(
            n.field("C.other"),
            FieldId(3000),
            "a clone interns on its own"
        );
    }

    #[test]
    fn lookup_falls_back_to_display() {
        let n = Names::new();
        assert_eq!(n.thread_name(ThreadId(5)), "t5");
        assert_eq!(n.task_name(TaskId(2)), "p2");
    }

    #[test]
    fn loc_name_combines_object_and_field() {
        let mut n = Names::new();
        let o = n.fresh_object("DwFileAct-obj");
        let f = n.field("DwFileAct.isActivityDestroyed");
        assert_eq!(
            n.loc_name(crate::ids::MemLoc::new(o, f)),
            "DwFileAct-obj.DwFileAct.isActivityDestroyed"
        );
    }
}
