"""Trace-compiled inference: a tape-replay JIT for ``repro.nn`` scoring.

The interpreted autograd graph pays, per op, a wrapper allocation, Python
dispatch through ``Tensor._make``, and graph bookkeeping that inference
never uses.  This module removes all of it from the scoring hot path:

1. **Trace** — one *real* interpreted forward runs under the thread-local
   :class:`repro.nn.tensor.op_hook`.  The :class:`_TapeBuilder` hook
   observes every dispatched op and records a flat step list: the op
   name, resolved argument references, and the op's non-tensor metadata.
   The traced call's own result is returned to the caller, so tracing
   costs one interpreted forward and nothing more.
2. **Compile** — the step list becomes a :class:`Tape`: the whole tape
   is code-generated into **one** Python function (``exec``-compiled
   once at build time) whose body is the raw numpy kernel sequence —
   step outputs are locals, input slots, parameters and frame buffers
   are hoisted once per call, baked constants live in a captured pool.
   A small liveness planner reuses output buffers across steps (a buffer
   freed at step ``s`` is reusable from ``s + 1``, so a kernel never
   aliases its own inputs); pure views (``transpose``, sharing
   ``reshape``/``getitem``) are recreated per call instead of buffered.
3. **Replay** — subsequent calls with the same specialization key call
   the generated function over a per-thread buffer frame: zero tensor
   wrapping, zero graph construction, zero per-step dispatch, zero
   per-op allocation for the buffered steps.  The batch dimension is
   symbolic, so one tape replays at any batch size: the caller names
   its batched input slots, :func:`_batch_flags` works out from the
   dataflow which steps carry the batch, the planner pools those
   buffers by trailing shape, and the generated code reads the batch
   ``b`` from the slots, hoists ``f<i> = frame[i][:b]`` views and
   leads reshape targets with ``b``.  Each thread's frame is planned
   at the largest batch it has replayed and regrown, without
   retracing, when a larger one arrives.  A graph that mixes rows
   across the batch (a reduction or concat over axis 0, a reshape or
   transpose moving it, a constant index on it) is not
   batch-polymorphic and raises :class:`TraceUnsupported`.

Argument references are resolved **by identity** at trace time:

* an array produced by an earlier traced op → that step's output;
* an array registered in the caller's input-slot dict → the slot name,
  looked up fresh on every replay (this is how data-dependent values —
  mask indices, positional encodings, the windows themselves — stay
  dynamic);
* a parameter's array → its index ``k`` in the traced parameter list.
  The generated function reads ``P[k]`` from the list bound at each
  replay, so a tape holds no weights: in-place optimizer updates,
  rebound arrays (``load_state_dict``, publish/refit) and other models
  of the same architecture all replay the weights they hold now;
* any other array of ``size <= 1`` → baked as a constant;
* anything else → :class:`TraceUnsupported`, which soft-fails the trace
  (the interpreted result is still returned; the caller caches the key
  as unsupported and keeps using the interpreted path).

**Binding semantics.**  A tape replays any parameter list with the
traced :func:`signature` — count, shapes, dtypes and requires-grad
flags — and nothing else checks the binding, so the signature is part
of every cache key.  One :class:`TapeCache` per architecture (for TFMAE
``(type(model), n_features, config)``, see :func:`shared_cache`) holds
the tapes of every model built with that key: a second model, a reload
or a refit replays the tapes the first one traced.  A model holds its
cache strongly and :func:`shared_cache` weakly, so a cache lives as long
as its longest-lived model.  A fused kernel reading a parameter of another
dtype than its output is not traced (the interpreter computes it at the
wider dtype and casts once).

Every replay kernel mirrors the *exact* numpy operation sequence of the
interpreted op, so replay output is bitwise-identical to the interpreted
graph in both float64 and float32.  The fused kernels are not mirrored
but shared: their single definition in :data:`repro.nn.fused.KERNELS`
runs once through :class:`_Record`, which writes each ``out=`` call as
a line of the replay function.

Known replay differences (documented, not observable through scores):
op hooks do not see replayed kernels, and attention's
``last_attention`` diagnostic is not refreshed during replay.

:func:`use_jit` / :func:`set_jit` / :func:`jit_enabled` are the switch
(:data:`repro.nn.policy.JIT`, default on); see :mod:`repro.nn.policy`
for the threading contract.

This module never constructs tensors — it only observes them through
the hook.  Lint rule JIT001 (:mod:`repro.analysis`) enforces this.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections.abc import Mapping
from functools import partial

import numpy as np

from .fused import KERNELS
from .policy import JIT
from .tensor import op_hook

__all__ = [
    "jit_enabled",
    "set_jit",
    "use_jit",
    "trace",
    "signature",
    "Tape",
    "TapeCache",
    "shared_cache",
    "cache_stats",
    "TraceUnsupported",
]

#: ``np.<fn>(`` / ``np.<ufunc>.at(`` / ``np.<ufunc>.reduce(`` call tokens
#: in generated replay source, for hoisting into compile-time-bound
#: default arguments.
_NP_CALL = re.compile(r"np\.(\w+(?:\.(?:at|reduce))?)\(")

use_jit = JIT.use
set_jit = JIT.set
jit_enabled = JIT.get


class TraceUnsupported(RuntimeError):
    """An op (or argument) the tape builder cannot replay."""


# Argument-reference kinds: an earlier step's output, a named input
# slot (resolved fresh each replay), a baked constant, or a parameter —
# an index into the parameter list bound at each replay.
_STEP, _SLOT, _CONST, _PARAM = 0, 1, 2, 3


class _Step:
    """One observed op: its output array (trace-time), args, and meta."""

    __slots__ = ("op", "out_data", "parent_datas", "refs", "meta")

    def __init__(self, op, out_data, parent_datas, refs, meta):
        self.op = op
        self.out_data = out_data
        self.parent_datas = parent_datas
        self.refs = refs
        self.meta = meta


class _TapeBuilder:
    """Op hook that records one interpreted forward as a flat step list.

    Failure is *soft*: on the first unsupported op the builder sets
    :attr:`failed` and stops recording, letting the traced forward run
    to completion so its interpreted result is still valid (and any
    RNG consumed by the caller's prelude is consumed exactly once).
    """

    def __init__(self, slots: dict, params) -> None:
        self._slot_ids = {
            id(value): name
            for name, value in slots.items()
            if isinstance(value, np.ndarray)
        }
        #: the traced parameter list; a tape reads parameter ``k`` as
        #: ``P[k]`` of the list bound at each replay.
        self.params = list(params)
        self._param_ids = {id(p.data): k for k, p in enumerate(self.params)}
        self.steps: list[_Step] = []
        self.tensor_step: dict[int, int] = {}
        #: output-array identity -> step; filled by the train-step builder,
        #: whose ``detach()`` leaves resolve to the step they alias.
        self.data_step: dict[int, int] = {}
        # Every observed output tensor is kept alive for the duration of
        # the trace: under no_grad the graph holds no parent references,
        # and a collected tensor's id could be reused mid-trace.
        self.keepalive: list = []
        self.failed: str | None = None
        if len(self._param_ids) != len(self.params):
            # Tied parameters: a tape would read both through one index,
            # which another model of the architecture need not share.
            self.failed = "two parameters share one array"

    # -- hook interface -------------------------------------------------
    def after_forward(self, out, parents) -> None:
        if self.failed is not None:
            return
        try:
            step = self._record(out, parents)
        except TraceUnsupported as error:
            self.failed = str(error)
            return
        self.tensor_step[id(out)] = len(self.steps)
        self.steps.append(step)
        self.keepalive.append(out)

    def _record(self, out, parents) -> _Step:
        """Resolve one observed op into the step appended next."""
        op = out.op
        if op not in _COMPILERS:
            raise TraceUnsupported(f"op {op!r} has no replay kernel")
        refs = tuple(self._resolve_parent(p) for p in parents)
        if op in KERNELS:
            for ref, parent in zip(refs, parents):
                if ref[0] == _PARAM and parent.data.dtype != out.data.dtype:
                    # The interpreter computes such a kernel at the wider
                    # dtype and casts once; the tape's out= buffers would
                    # round at every step.
                    raise TraceUnsupported(
                        f"{op} reads a {parent.data.dtype} parameter into a "
                        f"{out.data.dtype} output")
        meta = self._resolve_meta(op, getattr(out, "_meta", None))
        return _Step(op, out.data, tuple(p.data for p in parents), refs, meta)

    # -- reference resolution -------------------------------------------
    def _resolve_parent(self, parent):
        index = self.tensor_step.get(id(parent))
        if index is not None:
            return (_STEP, index)
        data = parent.data
        name = self._slot_ids.get(id(data))
        if name is not None:
            return (_SLOT, name)
        index = self._param_ids.get(id(data))
        if index is not None:
            return (_PARAM, index)
        # A ``detach()`` leaf holds a traced step's output: read its buffer.
        index = self.data_step.get(id(data))
        if index is not None:
            return (_STEP, index)
        if data.size <= 1:
            # Scalar leaves (coerced Python numbers) are immutable in
            # practice; bake a private copy to be safe.
            return (_CONST, data.copy())
        raise TraceUnsupported(
            f"leaf array of shape {data.shape} is neither a registered "
            "input slot nor a parameter"
        )

    def _resolve_obj(self, obj):
        if isinstance(obj, np.ndarray):
            name = self._slot_ids.get(id(obj))
            if name is not None:
                return (_SLOT, name)
            if obj.size <= 1:
                return (_CONST, obj.copy())
            raise TraceUnsupported(
                f"meta array of shape {obj.shape} is not a registered input slot"
            )
        return (_CONST, obj)

    def _resolve_index(self, index):
        if isinstance(index, tuple):
            return ("tuple", tuple(self._resolve_obj(e) for e in index))
        return ("one", self._resolve_obj(index))

    def _resolve_meta(self, op, meta):
        if op in ("getitem", "scatter"):
            meta = dict(meta)
            meta["index"] = self._resolve_index(meta["index"])
        elif op == "where":
            meta = dict(meta)
            meta["condition"] = self._resolve_obj(meta["condition"])
        elif op in ("fused_dropout_residual", "fused_attention"):
            if meta.get("mask") is not None:
                raise TraceUnsupported(f"{op} with an active dropout mask")
        return meta


def trace(fn, slots: dict, params, batched):
    """Run ``fn()`` once under the tape builder.

    ``params`` is the parameter list every replay binds anew (see
    :meth:`Tape.replay`); ``batched`` names the input slots whose leading
    axis is the batch; the first one present in ``slots`` supplies the
    batch size on every replay.  Returns ``(out, tape)`` where ``out`` is
    the traced call's own result tensor (always valid — use it for this
    call's answer) and ``tape`` is a compiled :class:`Tape` replayable at
    any batch size over any parameter list of the same
    :func:`signature`, or ``None`` when the forward hit a
    trace-unsupported op or is not batch-polymorphic (negative-cache the
    key and stay on the interpreted path).
    """
    builder = _TapeBuilder(slots, params)
    with op_hook(builder):
        out = fn()
    if builder.failed is not None or id(out) not in builder.tensor_step:
        return out, None
    try:
        tape = Tape(builder, id(out), slots, batched)
    except TraceUnsupported:
        return out, None
    return out, tape


# ----------------------------------------------------------------------
# step classification and buffer planning
# ----------------------------------------------------------------------
def _classify(step: _Step) -> str:
    """``view`` (recreate per call), ``alloc`` (fresh array per call),
    or ``buffer`` (write into a planned, reusable frame buffer)."""
    op = step.op
    if op == "transpose":
        return "view"
    if op in ("reshape", "getitem"):
        parent = step.parent_datas[0]
        if step.out_data.size and np.shares_memory(step.out_data, parent):
            return "view"
        return "alloc"
    if op in ("pow", "where"):
        # pow rides ndarray.__pow__'s exponent fast paths; where has no
        # out= form — both allocate fresh, exactly like the interpreter.
        return "alloc"
    if op == "matmul" and step.parent_datas[0].ndim == 1:
        return "alloc"
    return "buffer"


def _forward_scratch(step: _Step):
    """``(shape, dtype)`` of a fused kernel's forward scratch buffers."""
    kernel = KERNELS.get(step.op)
    if kernel is None:
        return ()
    return kernel.shapes(*step.parent_datas, **(step.meta or {}))[1:]


def _liveness(steps, pins):
    """Storage plan shared by both tapes: per-step :func:`_classify` kind,
    and per position the buffered steps whose storage dies there.

    A view chains to its source's storage root (a view of a slot or
    constant owns none); each root lives until the last step reading it,
    or later where ``pins`` — ``(step, position)`` pairs — say so: the
    outputs past the end of the tape, a train step's backward reads.
    """
    kinds, roots = [], []
    for i, step in enumerate(steps):
        kinds.append(_classify(step))
        root = i
        if kinds[i] == "view":
            ref_kind, payload = step.refs[0]
            root = roots[payload] if ref_kind == _STEP else None
        roots.append(root)
    last_use: dict[int, int] = {}
    for i, step in enumerate(steps):
        for ref_kind, payload in step.refs:
            if ref_kind == _STEP and roots[payload] is not None:
                last_use[roots[payload]] = i
    for index, pos in pins:
        root = roots[index]
        if root is not None:
            last_use[root] = max(last_use.get(root, pos), pos)
    deaths: dict[int, list[int]] = {}
    for i, kind in enumerate(kinds):
        if kind == "buffer":
            deaths.setdefault(last_use.get(i, i), []).append(i)
    return kinds, deaths


class _Pool:
    """First-fit buffer pool shared by both tapes.

    ``specs[buf_id]`` describes each planned buffer; a released buffer
    serves an equal-spec request from its release position on.
    """

    def __init__(self) -> None:
        self.specs: list[tuple] = []
        self._free: dict[tuple, list[tuple[int, int]]] = {}

    def new(self, spec: tuple) -> int:
        self.specs.append(spec)
        return len(self.specs) - 1

    def acquire(self, spec: tuple, at: int) -> int:
        free = self._free.get(spec)
        if free:
            for slot, (buf_id, avail_from) in enumerate(free):
                if avail_from <= at:
                    free.pop(slot)
                    return buf_id
        return self.new(spec)

    def release(self, buf_id: int, avail_from: int) -> None:
        self._free.setdefault(self.specs[buf_id], []).append((buf_id, avail_from))


def _compile(name: str, args: str, body: list[str], namespace: dict, filename: str):
    """``exec``-compile ``def name(args): body``; returns ``(source, fn)``.

    Every ``np.<fn>`` the body references is hoisted into a default
    argument, bound once at compile: each kernel line then reaches its
    function through one LOAD_FAST instead of a global plus attribute
    chain — measurable across ~hundreds of lines per replay.  One
    :data:`_NP_CALL` pass rewrites every call token (``np.add.at(`` and
    ``np.add(`` are distinct matches), and the hoisted arguments are
    sorted, so the same graph always compiles to the same source.  The
    source is assembled exclusively from this package's own emitters over
    trace-time metadata; nothing user-controlled reaches it (constants
    ride the ``C`` pool).
    """
    hoisted = set()

    def local(match) -> str:
        hoisted.add(match.group(1))
        return "np_" + match.group(1).replace(".", "_") + "("

    body = [_NP_CALL.sub(local, line) for line in body]
    args += "".join(f", np_{fn.replace('.', '_')}=np.{fn}" for fn in sorted(hoisted))
    source = "\n".join([f"def {name}({args}):"] + body + [""])
    exec(compile(source, filename, "exec"), namespace)
    return source, namespace[name]


# ----------------------------------------------------------------------
# batch polymorphism: which step outputs carry the batch on axis 0
# ----------------------------------------------------------------------
def _axes(axis, ndim: int) -> tuple:
    """``axis`` (``None``, an int or a tuple) as non-negative axes."""
    if axis is None:
        return tuple(range(ndim))
    return tuple(a % ndim for a in (axis if isinstance(axis, tuple) else (axis,)))


def _broadcast(out: np.ndarray, operands) -> bool:
    """Broadcasting rule over ``(array, batched)`` operands.

    The output is batched when any operand is.  Each batched operand
    must span every output axis (so its axis 0 is the output's), and no
    unbatched operand may stretch along axis 0.
    """
    if not any(flag for _, flag in operands):
        return False
    for array, flag in operands:
        if flag and array.ndim != out.ndim:
            raise TraceUnsupported("a batched operand does not lead the broadcast")
        if not flag and array.ndim == out.ndim and array.shape[0] != 1:
            raise TraceUnsupported("an unbatched operand spans the batch axis")
    return True


def _index_batched(spec, source_batched: bool, slots: dict, batched) -> bool:
    """Whether an index creates the batch on axis 0.

    Batched integer index arrays of equal rank must lead the index, with
    only non-array constants after them: their broadcast shape, batch
    first, then leads the result.  Any other index on a batched source
    touches its batch axis, and a batched index array behind a leading
    constant puts the batch on a later axis; both are rejected.
    """
    tag, payload = spec
    elements = payload if tag == "tuple" else (payload,)
    lead = 0
    while (lead < len(elements) and elements[lead][0] == _SLOT
           and elements[lead][1] in batched):
        lead += 1
    if not lead:
        if source_batched:
            raise TraceUnsupported("an index on the batch axis")
        if any(kind == _SLOT and obj in batched for kind, obj in elements):
            raise TraceUnsupported("a batched index behind the leading axis")
        return False
    arrays = [slots[name] for _, name in elements[:lead]]
    if any(a.dtype.kind not in "iu" or a.ndim != arrays[0].ndim for a in arrays):
        raise TraceUnsupported("batched index arrays must be integer, equal rank")
    for kind, obj in elements[lead:]:
        if kind != _CONST or isinstance(obj, np.ndarray):
            raise TraceUnsupported("an array index beside the batch axis")
    return True


def _batch_flags(steps, out_step: int, slots: dict, batched) -> list[bool]:
    """Per step, whether its output carries the batch on axis 0.

    Worked out from the dataflow alone — a batched slot is batched, a
    parameter or constant is not, and each op's rule propagates the
    flags — never by comparing a dimension to the traced batch size,
    which would collide whenever it equals a window, head or model
    dimension.  Raises :class:`TraceUnsupported` for any step that would
    mix rows across the batch (a reduction or concat over axis 0, a
    reshape or transpose moving it, a constant index on it) and when the
    output is not batched.
    """
    flags: list[bool] = []
    for step in steps:
        op, out, meta = step.op, step.out_data, step.meta or {}
        operands = [
            (data, flags[payload] if kind == _STEP
             else kind == _SLOT and payload in batched)
            for (kind, payload), data in zip(step.refs, step.parent_datas)
        ]
        x, first = operands[0]
        if op in ("sum", "max", "max_stat", "fused_softmax", "fused_log_softmax"):
            if first and 0 in _axes(meta["axis"], x.ndim):
                raise TraceUnsupported(f"{op} reduces over the batch axis")
            flag = first
        elif op == "transpose":
            if first and meta["axes"][0] % x.ndim != 0:
                raise TraceUnsupported("transpose moves the batch axis")
            flag = first
        elif op == "reshape":
            # The target's leading dimension must be the source's, with
            # the trailing ones regrouped per row.
            if first and (out.ndim == 0 or out.shape[0] != x.shape[0]):
                raise TraceUnsupported("reshape moves the batch axis")
            flag = first
        elif op in ("concat", "stack"):
            flag = any(f for _, f in operands)
            if flag and (not all(f for _, f in operands)
                         or _axes(meta["axis"], out.ndim) == (0,)):
                raise TraceUnsupported(f"{op} over the batch axis")
        elif op in ("getitem", "scatter"):
            flag = _index_batched(meta["index"], first, slots, batched)
            if op == "scatter" and (flag != first
                                    or (flag and out.shape[0] != x.shape[0])):
                raise TraceUnsupported("scatter moves the batch axis")
        elif op in ("matmul", "fused_attention"):
            # The batch must be a stacking axis, never a matrix axis; and
            # attention sizes its scratch from q, so q/k/v agree.
            if any(f and a.ndim < 3 for a, f in operands):
                raise TraceUnsupported(f"{op} contracts the batch axis")
            if op == "fused_attention" and any(f != first for _, f in operands):
                raise TraceUnsupported("attention over a partly batched q/k/v")
            flag = _broadcast(out, [(a, f) for a, f in operands if a.ndim > 2])
        else:  # elementwise; where's condition is one more operand
            if op == "where":
                kind, cond = meta["condition"]
                operands.append((slots[cond], cond in batched) if kind == _SLOT
                                else (np.asarray(cond), False))
            if op == "fused_layer_norm" and first and x.ndim < 2:
                raise TraceUnsupported("layer norm over the batch axis")
            flag = _broadcast(out, operands)
        flags.append(flag)
    if not flags[out_step]:
        raise TraceUnsupported("the output does not carry the batch")
    return flags


class _Codegen:
    """Accumulates the generated replay source and its constant pool.

    The whole tape compiles to **one** generated Python function: every
    step's output is a local variable (``e<i>``); input slots, bound
    arrays (parameters ``P[k]``, and a train step's Adam moments) and
    frame buffers are hoisted to locals once per call; baked constants
    (index tuples, scalars) live in the ``C`` pool captured in the
    function's globals.  This removes all per-step dispatch — no closure
    calls, no argument getters, no env list — leaving only the raw numpy
    kernel sequence.
    """

    def __init__(self, batched=()):
        self.lines: list[str] = []
        self.consts: list = []
        self.slot_vars: dict[str, str] = {}
        self.slot_lines: list[str] = []
        self.bound_vars: dict[tuple, str] = {}
        self.bound_lines: list[str] = []
        self.used_buffers: set[int] = set()
        #: steps whose output leads with the symbolic batch ``b`` (scoring
        #: tapes only; train-step tapes keep every shape concrete).
        self.batched = frozenset(batched)

    def const(self, obj) -> str:
        self.consts.append(obj)
        return f"C[{len(self.consts) - 1}]"

    def lit(self, obj) -> str:
        """Exact source literal for simple metadata; else a pool constant.

        ``repr`` of ``None``/``bool``/``int``/``float`` and int tuples
        round-trips exactly (floats included, per the Python language
        reference), so axes, shapes, eps and scale inline into the
        generated source; anything richer rides the constant pool.
        """
        if obj is None or isinstance(obj, (bool, int, float)):
            return repr(obj)
        if isinstance(obj, tuple) and all(type(x) is int for x in obj):
            return repr(obj)
        return self.const(obj)

    def slot(self, name: str) -> str:
        var = self.slot_vars.get(name)
        if var is None:
            var = self.slot_vars[name] = f"s{len(self.slot_vars)}"
            self.slot_lines.append(f"    {var} = slots[{name!r}]")
        return var

    def bound(self, var: str, arg: str, index: int) -> str:
        """Local ``<var><index>`` hoisted from the replay argument list ``arg``."""
        name = self.bound_vars.get((arg, index))
        if name is None:
            name = self.bound_vars[(arg, index)] = f"{var}{index}"
            self.bound_lines.append(f"    {name} = {arg}[{index}]")
        return name

    def ref(self, ref) -> str:
        """Expression for an argument ref (step output, slot, parameter or
        constant)."""
        if ref[0] == _STEP:
            return f"e{ref[1]}"
        if ref[0] == _PARAM:
            return self.bound("p", "P", ref[1])
        return self.obj(ref)

    def obj(self, ref) -> str:
        """Expression for a metadata object ref (slot or constant)."""
        kind, payload = ref
        if kind == _SLOT:
            return self.slot(payload)
        return self.const(payload)

    def index(self, spec) -> str:
        tag, payload = spec
        if tag == "one":
            return self.obj(payload)
        if all(kind == _CONST for kind, _ in payload):
            return self.const(tuple(obj for _, obj in payload))
        parts = ", ".join(self.obj(element) for element in payload)
        return f"({parts},)"

    def shape(self, i: int, shape: tuple) -> str:
        """Target-shape literal for step ``i``: batched steps lead with ``b``."""
        if i in self.batched:
            return "(b, " + "".join(f"{int(d)}, " for d in shape[1:]) + ")"
        return self.lit(shape)

    def buf(self, buf_id: int) -> str:
        self.used_buffers.add(buf_id)
        return f"f{buf_id}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)


class Tape:
    """A compiled scoring tape: one generated function over planned buffers.

    The batch dimension is symbolic: steps carrying the batch (see
    :func:`_batch_flags`) take their leading dimension from the replayed
    slots, so one tape serves every batch size.  Buffers live in a
    **per-thread frame** (created lazily on first replay on each
    thread), so concurrent serving workers replaying the same tape never
    collide, while repeated calls on one thread reuse the same memory
    with zero allocation for buffered steps.  A frame is planned at the
    largest batch its thread has replayed; batched buffers are replayed
    as leading-row views of it.  Parameters are replay arguments, so one
    tape serves every model whose parameter list has the traced
    :func:`signature`.
    """

    def __init__(self, builder: _TapeBuilder, out_id: int, slots: dict, batched):
        steps = builder.steps
        self._out_step = builder.tensor_step[out_id]
        self._tls = threading.local()
        batched = [name for name in batched if isinstance(slots.get(name), np.ndarray)]
        if not batched or not slots[batched[0]].shape[0]:
            raise TraceUnsupported("tracing needs a non-empty batched slot")
        self._batch_slot = batched[0]
        flags = _batch_flags(steps, self._out_step, slots, frozenset(batched))

        # The final output is pinned past the end of the tape so its
        # buffer is never handed out for reuse mid-replay.
        n = len(steps)
        kinds, deaths = _liveness(steps, [(self._out_step, n)])

        # Buffers are pooled per (batched, dims, dtype): a batched
        # buffer's dims are its trailing shape — its leading one is the
        # replay batch — and every scratch buffer of a batched step is
        # batched too.
        pool = _Pool()
        buffer_of: dict[int, int] = {}

        def acquire(shape, dtype, at, batch):
            return pool.acquire(
                (batch, tuple(shape[1:] if batch else shape), np.dtype(dtype)), at)

        codegen = _Codegen(i for i, flag in enumerate(flags) if flag)
        for i, step in enumerate(steps):
            buf_id, scratch_ids = None, []
            if kinds[i] == "buffer":
                buf_id, *scratch_ids = [
                    acquire(shape, dtype, i, flags[i]) for shape, dtype in
                    [(step.out_data.shape, step.out_data.dtype), *_forward_scratch(step)]]
                buffer_of[i] = buf_id
                for sid in scratch_ids:
                    pool.release(sid, i + 1)
            _COMPILERS[step.op](codegen, i, step, kinds[i], buf_id, scratch_ids)
            # Buffers whose root dies here become reusable from i + 1 —
            # never at i itself, so a kernel cannot alias its own inputs.
            for root in deaths.get(i, ()):
                pool.release(buffer_of[root], i + 1)

        frame_lines = [
            f"    f{buf_id} = frame[{buf_id}]" + ("[:b]" if pool.specs[buf_id][0] else "")
            for buf_id in sorted(codegen.used_buffers)
        ]
        body = [*codegen.slot_lines, *codegen.bound_lines, *frame_lines,
                *codegen.lines, f"    return e{self._out_step}"]
        self.source, self._fn = _compile(
            "_replay", "slots, frame, b, P", body,
            {"np": np, "C": tuple(codegen.consts)}, "<repro.nn.jit.Tape>")
        self._frame_specs = tuple(pool.specs)
        #: step and planned-buffer counts, exposed for tests/diagnostics.
        self.num_steps = n
        self.num_buffers = len(pool.specs)

    @property
    def frame_batch(self) -> int:
        """The batch this thread's frame is planned at (0 before replay)."""
        return getattr(self._tls, "batch", 0)

    def replay(self, slots: dict, params) -> np.ndarray:
        """Execute the tape over fresh ``slots`` and the arrays of ``params``.

        ``params`` must have the traced :func:`signature` (a
        :class:`TapeCache` key carries it).  The result may live in a
        reused frame buffer — callers that retain it across calls must
        copy.
        """
        batch = slots[self._batch_slot].shape[0]
        tls = self._tls
        if batch > getattr(tls, "batch", 0):
            # Plan (or regrow) this thread's frame at the largest batch
            # it has replayed; the old frame goes first so the two never
            # coexist.
            tls.frame = None
            tls.frame = _new_frame("score", [
                np.empty((batch, *dims) if batched else dims, dtype)
                for batched, dims, dtype in self._frame_specs
            ])
            tls.batch = batch
        return self._fn(slots, tls.frame, batch, [p.data for p in params])

    def release_frame(self) -> None:
        """Free this thread's frame; its next replay plans a new one."""
        self._tls.frame = None
        self._tls.batch = 0


def signature(params) -> tuple:
    """The structure a tape binds: per parameter its shape, dtype and
    requires-grad flag.  Part of every :class:`TapeCache` key, so a
    parameter list replays only tapes traced over the same structure."""
    return tuple((p.data.shape, p.data.dtype, p.requires_grad) for p in params)


# ----------------------------------------------------------------------
# frames and the per-architecture tape cache
# ----------------------------------------------------------------------
class _Frame(list):
    """A tape's planned buffers; weakly referenced by the bytes gauge."""

    __slots__ = ("__weakref__",)


#: Tape kinds a cache holds, and the counters it keeps per kind.
_KINDS = ("score", "train")
_COUNTERS = ("traces", "replays", "evictions", "fallbacks")

#: Bytes held by live frames per kind; a frame's bytes leave the gauge
#: when it is freed.
_FRAME_BYTES = dict.fromkeys(_KINDS, 0)
_FRAME_LOCK = threading.RLock()


def _new_frame(kind: str, buffers) -> _Frame:
    frame = _Frame(buffers)
    nbytes = sum(buffer.nbytes for buffer in frame)
    with _FRAME_LOCK:
        _FRAME_BYTES[kind] += nbytes
    weakref.finalize(frame, _free_frame, kind, nbytes)
    return frame


def _free_frame(kind: str, nbytes: int) -> None:
    with _FRAME_LOCK:
        _FRAME_BYTES[kind] -= nbytes


#: Negative-cache sentinel: the key hit a trace-unsupported op, so every
#: model of the architecture stays on the interpreted path for it.
_UNSUPPORTED = object()


class _Entries(Mapping):
    """A live, read-only view of one kind's entries, in LRU order
    (least recently used first); ``clear()`` drops them from the cache."""

    def __init__(self, cache: "TapeCache", kind: str):
        self._cache, self._kind = cache, kind

    def _snapshot(self) -> dict:
        with self._cache._lock:
            return {key: entry for (kind, key), entry in self._cache._entries.items()
                    if kind == self._kind}

    def __getitem__(self, key):
        return self._snapshot()[key]

    def __iter__(self):
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())

    def values(self) -> list:
        return list(self._snapshot().values())

    def clear(self) -> None:
        with self._cache._lock:
            for name in [name for name in self._cache._entries if name[0] == self._kind]:
                del self._cache._entries[name]


class TapeCache:
    """The compiled tapes of one architecture, shared by all its models.

    One LRU over scoring entries (keyed by window geometry, dtype, fused
    policy and parameter :func:`signature`) and train-step entries (batch
    shape, dtype, fused policy, signature and optimizer hyper-parameters);
    an entry is a :class:`Tape`, a :class:`repro.nn.jit_train.TrainTape`
    or the negative-cache sentinel.  Each kind holds at most the
    ``capacity`` its caller passes to :meth:`store`; a hit refreshes an
    entry's position.  Frames never live here: scoring frames are per
    thread on the tape, train frames belong to the trainer's step.

    ``_lock`` is a leaf: it guards lookups and mutations, never a trace
    or a replay.  Per-kind counters feed :func:`cache_stats`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._counts = {kind: dict.fromkeys(_COUNTERS, 0) for kind in _KINDS}

    def view(self, kind: str) -> _Entries:
        return _Entries(self, kind)

    def lookup(self, kind: str, key):
        """The entry for ``key`` (refreshing it), or None on a miss."""
        with self._lock:
            entry = self._entries.pop((kind, key), None)
            if entry is not None:
                self._entries[(kind, key)] = entry
                self._counts[kind]["fallbacks" if entry is _UNSUPPORTED else "replays"] += 1
            return entry

    def store(self, kind: str, key, tape, capacity: int) -> int:
        """Cache a traced ``tape`` (None negative-caches the key); returns
        how many entries of ``kind`` it evicted."""
        with self._lock:
            counts = self._counts[kind]
            counts["traces" if tape is not None else "fallbacks"] += 1
            self._entries.pop((kind, key), None)
            self._entries[(kind, key)] = tape if tape is not None else _UNSUPPORTED
            names = [name for name in self._entries if name[0] == kind]
            evicted = max(0, len(names) - capacity)
            for name in names[:evicted]:
                del self._entries[name]
            counts["evictions"] += evicted
            return evicted

    def release_frames(self) -> None:
        """Free the calling thread's frames of every cached scoring tape."""
        for tape in self.view("score").values():
            if tape is not _UNSUPPORTED:
                tape.release_frame()

    def _stats(self) -> dict:
        with self._lock:
            stats = {kind: {**counts, "resident": 0} for kind, counts in self._counts.items()}
            for (kind, _), entry in self._entries.items():
                stats[kind]["resident"] += entry is not _UNSUPPORTED
            return stats


#: Architecture key -> its live cache.  A model holds its cache strongly,
#: so a cache lives exactly as long as its longest-lived model.
_CACHES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
#: Counters of caches already freed, so exported totals never go down.
_RETIRED = {kind: dict.fromkeys(_COUNTERS, 0) for kind in _KINDS}
_CACHES_LOCK = threading.RLock()


def shared_cache(*key) -> TapeCache:
    """The :class:`TapeCache` of the architecture ``key`` (created on first
    use).  A model keeps the result as an attribute; ``key`` must fully
    determine the traced graph apart from the parameter arrays — for
    TFMAE, ``(type(model), n_features, config)``."""
    with _CACHES_LOCK:
        cache = _CACHES.get(key)
        if cache is None:
            cache = _CACHES[key] = TapeCache()
            weakref.finalize(cache, _retire, cache._counts)
        return cache


def _retire(counts: dict) -> None:
    with _CACHES_LOCK:
        for kind, values in counts.items():
            for name, value in values.items():
                _RETIRED[kind][name] += value


def cache_stats() -> dict:
    """Process-wide tape-cache figures, read at call time.

    ``{"caches": n, "score": {...}, "train": {...}}`` where each kind has
    the counters ``traces``/``replays``/``evictions``/``fallbacks``
    (totals over every cache this process has had, so they never go
    down), ``resident`` (compiled tapes in live caches) and
    ``frame_bytes`` (bytes held by live frames).
    """
    with _CACHES_LOCK:
        caches = list(_CACHES.values())
        stats = {kind: {**values, "resident": 0} for kind, values in _RETIRED.items()}
    for cache in caches:
        for kind, values in cache._stats().items():
            for name, value in values.items():
                stats[kind][name] += value
    with _FRAME_LOCK:
        for kind, nbytes in _FRAME_BYTES.items():
            stats[kind]["frame_bytes"] = nbytes
    return {"caches": len(caches), **stats}


# ----------------------------------------------------------------------
# kernel emitters — each writes the interpreted op's exact numpy call
# sequence into the generated replay function, so replay is
# bitwise-identical at every dtype
# ----------------------------------------------------------------------
def _binary_emitter(fn):
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
        cg.emit(f"e{i} = np.{fn}({a}, {b}, out={cg.buf(buf_id)})")

    return emit


def _unary_emitter(fn):
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        cg.emit(f"e{i} = np.{fn}({cg.ref(step.refs[0])}, out={cg.buf(buf_id)})")

    return emit


def _emit_pow(cg, i, step, kind, buf_id, scratch_ids):
    # ndarray.__pow__'s exponent fast paths allocate fresh, exactly like
    # the interpreter.
    cg.emit(f"e{i} = {cg.ref(step.refs[0])} ** {cg.lit(step.meta['exponent'])}")


def _emit_sigmoid(cg, i, step, kind, buf_id, scratch_ids):
    a, buf = cg.ref(step.refs[0]), cg.buf(buf_id)
    cg.emit(f"np.negative({a}, out={buf})")
    cg.emit(f"np.exp({buf}, out={buf})")
    cg.emit(f"np.add({buf}, 1.0, out={buf})")
    cg.emit(f"e{i} = np.divide(1.0, {buf}, out={buf})")


def _emit_relu(cg, i, step, kind, buf_id, scratch_ids):
    a = cg.ref(step.refs[0])
    cg.emit(f"e{i} = np.multiply({a}, np.greater({a}, 0), out={cg.buf(buf_id)})")


def _emit_clip(cg, i, step, kind, buf_id, scratch_ids):
    a = cg.ref(step.refs[0])
    low, high = cg.lit(step.meta["low"]), cg.lit(step.meta["high"])
    cg.emit(f"e{i} = np.clip({a}, {low}, {high}, out={cg.buf(buf_id)})")


def _reduction_emitter(ufunc):
    # ``ndarray.sum``/``.max`` are exactly ``np.add.reduce``/
    # ``np.maximum.reduce`` underneath (numpy's ``_methods`` module binds
    # them directly), so the ufunc form is bitwise-identical while
    # skipping the per-call Python wrapper.
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        a = cg.ref(step.refs[0])
        axis = cg.lit(step.meta["axis"])
        keepdims = cg.lit(step.meta["keepdims"])
        cg.emit(
            f"e{i} = np.{ufunc}.reduce({a}, axis={axis}, "
            f"out={cg.buf(buf_id)}, keepdims={keepdims})"
        )

    return emit


def _emit_matmul(cg, i, step, kind, buf_id, scratch_ids):
    a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
    if kind == "alloc":  # 1-D dot product: 0-d result, no out= form
        cg.emit(f"e{i} = {a} @ {b}")
    else:
        cg.emit(f"e{i} = np.matmul({a}, {b}, out={cg.buf(buf_id)})")


def _emit_transpose(cg, i, step, kind, buf_id, scratch_ids):
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}.transpose({cg.lit(step.meta['axes'])})")


def _emit_reshape(cg, i, step, kind, buf_id, scratch_ids):
    target = cg.shape(i, step.out_data.shape)
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}.reshape({target})")


def _emit_getitem(cg, i, step, kind, buf_id, scratch_ids):
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}[{cg.index(step.meta['index'])}]")


def _emit_concat(cg, i, step, kind, buf_id, scratch_ids):
    parts = ", ".join(cg.ref(ref) for ref in step.refs)
    axis = cg.lit(step.meta["axis"])
    cg.emit(
        f"e{i} = np.concatenate(({parts},), axis={axis}, out={cg.buf(buf_id)})"
    )


def _emit_stack(cg, i, step, kind, buf_id, scratch_ids):
    parts = ", ".join(cg.ref(ref) for ref in step.refs)
    axis = cg.lit(step.meta["axis"])
    cg.emit(f"e{i} = np.stack(({parts},), axis={axis}, out={cg.buf(buf_id)})")


def _emit_scatter(cg, i, step, kind, buf_id, scratch_ids):
    buf = cg.buf(buf_id)
    cg.emit(f"{buf}[...] = 0.0")
    cg.emit(f"np.add.at({buf}, {cg.index(step.meta['index'])}, "
            f"{cg.ref(step.refs[0])})")
    cg.emit(f"e{i} = {buf}")


def _emit_where(cg, i, step, kind, buf_id, scratch_ids):
    # np.where has no out= form; allocates fresh, exactly like the
    # interpreter.
    cond = cg.obj(step.meta["condition"])
    a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
    cg.emit(f"e{i} = np.where({cond}, {a}, {b})")


class _Sym:
    """An array in generated source for a kernel definition: the
    trace-time ``shape``/``dtype`` it reads, and its source expression —
    a string, or a callable rendering it on first use, so an operand the
    definition never reads takes no constant-pool entry."""

    __slots__ = ("shape", "dtype", "_text")

    def __init__(self, text, like: np.ndarray):
        self.shape, self.dtype = like.shape, like.dtype
        self._text = text

    def __str__(self) -> str:
        if not isinstance(self._text, str):
            self._text = self._text()
        return self._text


class _Record:
    """Stand-in for :mod:`numpy` that writes a kernel definition as source.

    ``rec.<fn>(...)`` with an ``out=`` argument becomes one line of the
    generated function (and returns None); any other call becomes an
    expression nested in the line that uses it.  Strings and
    :class:`_Sym` arguments are source expressions (step outputs, slots,
    frame buffers); everything else renders as a literal or a pool
    constant.
    """

    __slots__ = ("_cg", "_path")

    def __init__(self, cg: _Codegen, path: str = "np"):
        self._cg = cg
        self._path = path

    def __getattr__(self, name: str) -> "_Record":
        return _Record(self._cg, f"{self._path}.{name}")

    def __call__(self, *args, **kwargs):
        def render(value):
            if isinstance(value, (str, _Sym)):
                return str(value)
            return self._cg.lit(value)

        parts = [render(a) for a in args]
        parts += [f"{key}={render(value)}" for key, value in kwargs.items()]
        text = f"{self._path}({', '.join(parts)})"
        if "out" not in kwargs:
            return text
        self._cg.emit(text)
        return None


def _emit_kernel(cg, i, step, kind, buf_id, scratch_ids):
    """A fused op's forward, recorded from its :data:`KERNELS` definition."""
    parents = [_Sym(partial(cg.ref, ref), data)
               for ref, data in zip(step.refs, step.parent_datas)]
    buffers = [cg.buf(b) for b in (buf_id, *scratch_ids)]
    KERNELS[step.op].forward(_Record(cg), *parents, *buffers, **(step.meta or {}))
    # The definition's last call writes the output buffer.
    cg.lines[-1] = f"    e{i} = {cg.lines[-1].lstrip()}"


_COMPILERS = {
    "add": _binary_emitter("add"),
    "mul": _binary_emitter("multiply"),
    "div": _binary_emitter("divide"),
    "neg": _unary_emitter("negative"),
    "exp": _unary_emitter("exp"),
    "log": _unary_emitter("log"),
    "sqrt": _unary_emitter("sqrt"),
    "tanh": _unary_emitter("tanh"),
    "abs": _unary_emitter("absolute"),
    "pow": _emit_pow,
    "sigmoid": _emit_sigmoid,
    "relu": _emit_relu,
    "clip": _emit_clip,
    "sum": _reduction_emitter("add"),
    "max": _reduction_emitter("maximum"),
    "max_stat": _reduction_emitter("maximum"),
    "matmul": _emit_matmul,
    "transpose": _emit_transpose,
    "reshape": _emit_reshape,
    "getitem": _emit_getitem,
    "concat": _emit_concat,
    "stack": _emit_stack,
    "scatter": _emit_scatter,
    "where": _emit_where,
    **dict.fromkeys(KERNELS, _emit_kernel),
}
