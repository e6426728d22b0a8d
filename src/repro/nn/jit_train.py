"""Trace-compiled training: a tape JIT for the whole train step.

:mod:`repro.nn.jit` compiles the *scoring* graph; this module extends the
same tape machinery to the full training step — ``loss`` forward,
``backward`` and the optimiser update — so ``Trainer.fit`` and
``TFMAE.refit`` stop paying per-op Python dispatch on every batch:

1. **Trace** — one *real* interpreted step runs under the thread-local
   op hook.  The forward is recorded exactly as the scoring tape records
   it; during ``loss.backward()`` the hook's ``after_backward`` records
   the order in which the autograd closures ran, so the backward phase
   becomes a first-class step list of its own.  The optimiser update is
   recorded structurally (parameter/slot identities) from the optimiser
   object.  The traced batch itself uses its own interpreted results,
   so the training trajectory never depends on whether compilation
   succeeds.
2. **Compile** — forward, backward and update are code-generated into
   **one** Python generator function: ``next()`` runs the forward and
   yields the loss/metric buffers, the second ``next()`` runs the
   backward into planned gradient buffers, the third runs the in-place
   Adam update.  A liveness planner shares one buffer pool across all
   three phases (activations a backward formula still needs are kept
   alive until exactly their backward step); parameter gradients get
   dedicated buffers that are re-bound to ``param.grad`` every replay.
3. **Replay** — per ``(batch shape, fused policy)`` key, subsequent
   batches run the generated function over the trainer's frame: zero
   graph construction, zero closure dispatch, zero per-op allocation
   for buffered steps, and in-place parameter updates.

Every emitted primitive kernel mirrors the *exact* numpy operation
sequence of the interpreted op's backward closure (and of ``Adam.step``);
the fused kernels run their single definition from
:data:`repro.nn.fused.KERNELS` — forward and backward — through the same
recorder as the scoring tape, keeping the scratch buffers a backward
reads alive until that op's backward step.  So the compiled trajectory is
**bitwise-identical** to the interpreted one: same per-batch losses, same
final ``state_dict``, same RNG stream — resume, rollback and checkpoints
stay exactly reproducible across the toggle.

Binding semantics extend the scoring tape's: parameters *and* the Adam
moment buffers are replay arguments (``P[k]``, ``M[j]``, ``V[j]``), so a
tape holds no model state.  It lives in the architecture's shared
:class:`repro.nn.jit.TapeCache`, keyed by batch shape, dtype, fused
policy, the parameter :func:`~repro.nn.jit.signature` and the
optimizer's type, hyper-parameters and parameter layout; a second fit,
a refit, a checkpoint restore or a rollback of any model of the
architecture replays it over the arrays bound at that moment.  ``lr``
and the bias corrections are passed per call, so ``lr_backoff`` and the
step count never split a key.  Frames stay with the :class:`TrainStep`
(one trainer), so they are freed with it.  Unsupported graphs (active
dropout masks, ``max`` in the backward, gradient flow into untraced
leaves) soft-fail: the key is negative-cached and the interpreted path
is used, consuming the same RNG.

:func:`use_train_jit` / :func:`set_train_jit` / :func:`train_jit_enabled`
are the switch (:data:`repro.nn.policy.TRAIN_JIT`, default on; see
:mod:`repro.nn.policy`).  Failures raised *inside* a compiled step are
re-raised as :class:`CompiledStepError` naming the op and its recorded
creation site instead of the anonymous ``exec`` frame; when
``detect_anomaly`` is active the step always runs interpreted so the
sanitizer's op attribution is untouched.

This module never constructs tensors — it only observes them through the
hook.  Lint rule JIT001 (:mod:`repro.analysis`) enforces this.
"""

from __future__ import annotations

import os
import sys
from functools import partial

import numpy as np

from .dtype import default_dtype
from .fused import KERNELS, fused_enabled
from .jit import (
    _STEP,
    _UNSUPPORTED,
    _Codegen,
    _compile,
    _COMPILERS,
    _forward_scratch,
    _liveness,
    _new_frame,
    _Pool,
    _Record,
    _Sym,
    _TapeBuilder,
    signature,
    TraceUnsupported,
)
from .optim import Adam
from .policy import TRAIN_JIT
from .tensor import _HOOK_STATE, _unbroadcast, op_hook

__all__ = [
    "train_jit_enabled",
    "set_train_jit",
    "use_train_jit",
    "TrainStep",
    "TrainTape",
    "CompiledStepError",
    "TraceUnsupported",
]

use_train_jit = TRAIN_JIT.use
set_train_jit = TRAIN_JIT.set
train_jit_enabled = TRAIN_JIT.get

_FILENAME = "<repro.nn.jit_train.TrainTape>"
_NN_DIR = os.path.dirname(os.path.abspath(__file__))


class CompiledStepError(RuntimeError):
    """A failure inside a compiled train step, mapped back to its op.

    Carries the culpable op name, the phase (forward/backward/update)
    and the op's recorded creation site so diagnostics keep naming model
    code rather than the generated ``exec`` frame.
    """

    def __init__(self, message: str, op: str | None = None,
                 phase: str | None = None, site: str | None = None):
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.site = site


def _capture_site() -> str | None:
    """First stack frame outside ``repro/nn`` — the op's creation site."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if not code.co_filename.startswith(_NN_DIR):
            return f"{code.co_filename}:{frame.f_lineno} ({code.co_name})"
        frame = frame.f_back
    return None


class _TrainTapeBuilder(_TapeBuilder):
    """Op hook recording one interpreted train step (forward + backward).

    Extends the scoring builder with everything the backward compiler
    needs: per-parent gradient targets (an earlier step or a parameter),
    the closure execution order observed during ``loss.backward()``, a
    data-identity fallback so ``detach()`` leaves resolve to the step
    whose array they share, and per-step creation sites for error
    attribution.
    """

    def __init__(self, slots: dict, params) -> None:
        super().__init__(slots, params)
        self.parent_targets: list[tuple] = []
        self.sites: list[str | None] = []
        self.backward_items: list[int] = []

    def _record(self, out, parents):
        step = super()._record(out, parents)
        targets = tuple(self._resolve_target(p) for p in parents)
        self.data_step[id(out.data)] = len(self.steps)
        self.parent_targets.append(targets)
        self.sites.append(_capture_site())
        return step

    def _resolve_target(self, parent):
        """Where this parent's gradient accumulates, or None for no-grad."""
        if not parent.requires_grad:
            return None
        index = self.tensor_step.get(id(parent))
        if index is not None:
            return ("s", index)
        index = self._param_ids.get(id(parent.data))
        if index is not None:
            return ("p", index)
        raise TraceUnsupported(
            f"gradient flows into an untraced leaf (op {parent.op!r})"
        )

    def after_backward(self, node) -> None:
        if self.failed is not None:
            return
        index = self.tensor_step.get(id(node))
        if index is None:
            self.failed = "backward reached an untraced node"
            return
        self.backward_items.append(index)

# ----------------------------------------------------------------------
# backward kernel emitters
# ----------------------------------------------------------------------
class _BwdCtx:
    """Emission context for one backward item (one closure's replay).

    Wraps the codegen plus the gradient-contribution machinery so each
    per-op emitter below only spells out the closure's exact numpy
    sequence.  ``scratch(shape, dtype)`` is a pooled temporary living
    only for this item; ``contrib(k, raw_shape, recipe)`` routes one
    parent's raw gradient (a string expression, or a callable that
    writes it into a target — returning its lines, or recording them
    through :class:`repro.nn.jit._Record`) through the same
    init-copy/accumulate semantics as ``Tensor._accumulate``, including
    ``_unbroadcast`` when the raw shape differs from the parent's.  The
    two make the context the ``grads`` argument of a
    :data:`repro.nn.fused.KERNELS` backward.
    """

    __slots__ = ("cg", "step", "index", "out", "g", "saved", "targets",
                 "scratch", "contrib")

    def __init__(self, cg, step, index, out, g, targets,
                 saved, scratch, contrib):
        self.cg = cg
        self.step = step
        self.index = index
        self.out = out
        self.g = g
        #: the op's forward scratch buffers its backward reads.
        self.saved = saved
        self.targets = targets
        self.scratch = scratch
        self.contrib = contrib

    @property
    def oshape(self):
        return self.step.out_data.shape

    @property
    def odtype(self):
        return self.step.out_data.dtype

    def ref(self, k):
        return self.cg.ref(self.step.refs[k])

    def pshape(self, k):
        return self.step.parent_datas[k].shape

    def pdtype(self, k):
        return self.step.parent_datas[k].dtype

    def lit(self, obj):
        return self.cg.lit(obj)

    def wants(self, k):
        return self.targets[k] is not None

    def call(self, k, raw_shape, fn, *args):
        """Contribution computed by one ``np.<fn>(*args, out=target)``."""
        joined = ", ".join(args)
        self.contrib(k, raw_shape, lambda target: [f"np.{fn}({joined}, out={target})"])


def _bwd_add(ctx):
    ctx.contrib(0, ctx.oshape, ctx.g)
    ctx.contrib(1, ctx.oshape, ctx.g)


def _bwd_neg(ctx):
    ctx.call(0, ctx.oshape, "negative", ctx.g)


def _bwd_mul(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, ctx.ref(1))
    ctx.call(1, ctx.oshape, "multiply", ctx.g, ctx.ref(0))


def _bwd_div(ctx):
    ctx.call(0, ctx.oshape, "divide", ctx.g, ctx.ref(1))
    if ctx.wants(1):
        b = ctx.ref(1)
        sq = ctx.scratch(ctx.pshape(1), ctx.pdtype(1))

        def lines(target):
            return [
                f"np.negative({ctx.g}, out={target})",
                f"np.multiply({target}, {ctx.ref(0)}, out={target})",
                f"np.multiply({b}, {b}, out={sq})",
                f"np.divide({target}, {sq}, out={target})",
            ]

        ctx.contrib(1, ctx.oshape, lines)


def _bwd_pow(ctx):
    exponent = ctx.step.meta["exponent"]
    g, a = ctx.g, ctx.ref(0)

    def lines(target):
        return [
            f"np.multiply({g}, {ctx.lit(exponent)}, out={target})",
            f"np.multiply({target}, {a} ** {ctx.lit(exponent - 1)}, "
            f"out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_exp(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, ctx.out)


def _bwd_log(ctx):
    ctx.call(0, ctx.oshape, "divide", ctx.g, ctx.ref(0))


def _bwd_sqrt(ctx):
    def lines(target):
        return [
            f"np.multiply({ctx.g}, 0.5, out={target})",
            f"np.divide({target}, {ctx.out}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_tanh(ctx):
    def lines(target):
        return [
            f"np.multiply({ctx.out}, {ctx.out}, out={target})",
            f"np.subtract(1.0, {target}, out={target})",
            f"np.multiply({ctx.g}, {target}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_sigmoid(ctx):
    comp = ctx.scratch(ctx.oshape, ctx.odtype)

    def lines(target):
        return [
            f"np.subtract(1.0, {ctx.out}, out={comp})",
            f"np.multiply({ctx.g}, {ctx.out}, out={target})",
            f"np.multiply({target}, {comp}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_relu(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, f"np.greater({ctx.ref(0)}, 0)")


def _bwd_abs(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, f"np.sign({ctx.ref(0)})")


def _bwd_clip(ctx):
    low, high = ctx.lit(ctx.step.meta["low"]), ctx.lit(ctx.step.meta["high"])
    a = ctx.ref(0)
    ctx.call(0, ctx.oshape, "multiply", ctx.g,
             f"(({a} >= {low}) & ({a} <= {high}))")


def _bwd_sum(ctx):
    axis = ctx.step.meta["axis"]
    keepdims = ctx.step.meta["keepdims"]
    g = ctx.g
    if axis is not None and not keepdims:
        g = f"np.expand_dims({g}, axis={ctx.lit(axis)})"
    ctx.contrib(0, ctx.pshape(0),
                f"np.broadcast_to({g}, {ctx.lit(ctx.pshape(0))})")


def _bwd_matmul(ctx):
    a, b = ctx.step.parent_datas
    g = ctx.g
    if a.ndim == 1:  # dot product
        ctx.call(0, a.shape, "multiply", g, ctx.ref(1))
        ctx.call(1, b.shape, "multiply", g, ctx.ref(0))
        return
    gshape = ctx.oshape
    raw_a = tuple(np.broadcast_shapes(gshape[:-2], b.shape[:-2])) + (
        gshape[-2], b.shape[-2])
    raw_b = tuple(np.broadcast_shapes(a.shape[:-2], gshape[:-2])) + (
        a.shape[-1], gshape[-1])
    ctx.contrib(0, raw_a, lambda target: [
        f"np.matmul({g}, np.swapaxes({ctx.ref(1)}, -1, -2), out={target})"])
    ctx.contrib(1, raw_b, lambda target: [
        f"np.matmul(np.swapaxes({ctx.ref(0)}, -1, -2), {g}, out={target})"])


def _bwd_transpose(ctx):
    inverse = tuple(int(x) for x in np.argsort(ctx.step.meta["axes"]))
    ctx.contrib(0, ctx.pshape(0), f"{ctx.g}.transpose({ctx.lit(inverse)})")


def _bwd_reshape(ctx):
    ctx.contrib(0, ctx.pshape(0),
                f"{ctx.g}.reshape({ctx.lit(ctx.pshape(0))})")


def _bwd_getitem(ctx):
    index = ctx.cg.index(ctx.step.meta["index"])

    def lines(target):
        return [
            f"{target}[...] = 0.0",
            f"np.add.at({target}, {index}, {ctx.g})",
        ]

    ctx.contrib(0, ctx.pshape(0), lines)


def _bwd_scatter(ctx):
    index = ctx.cg.index(ctx.step.meta["index"])
    ctx.contrib(0, ctx.pshape(0), f"{ctx.g}[{index}]")


def _bwd_concat(ctx):
    axis = ctx.step.meta["axis"]
    ndim = ctx.step.out_data.ndim
    start = 0
    for k, pdata in enumerate(ctx.step.parent_datas):
        stop = start + pdata.shape[axis]
        slicer = [slice(None)] * ndim
        slicer[axis] = slice(start, stop)
        ctx.contrib(k, pdata.shape,
                    f"{ctx.g}[{ctx.cg.const(tuple(slicer))}]")
        start = stop


def _bwd_stack(ctx):
    axis = ctx.lit(ctx.step.meta["axis"])
    nparts = len(ctx.step.parent_datas)
    parts = f"aux{ctx.index}"
    ctx.cg.emit(f"{parts} = np.split({ctx.g}, {nparts}, axis={axis})")
    for k, pdata in enumerate(ctx.step.parent_datas):
        ctx.contrib(k, pdata.shape,
                    f"np.squeeze({parts}[{k}], axis={axis})")


def _bwd_where(ctx):
    cond = ctx.cg.obj(ctx.step.meta["condition"])
    ctx.contrib(0, ctx.oshape, f"np.where({cond}, {ctx.g}, 0.0)")
    ctx.contrib(1, ctx.oshape, f"np.where({cond}, 0.0, {ctx.g})")


def _bwd_kernel(ctx):
    """A fused op's backward, recorded from its ``KERNELS`` definition."""
    step = ctx.step
    parents = [_Sym(partial(ctx.ref, k), data)
               for k, data in enumerate(step.parent_datas)]
    KERNELS[step.op].backward(
        _Record(ctx.cg), ctx, _Sym(ctx.g, step.out_data), *parents,
        _Sym(ctx.out, step.out_data), *ctx.saved, **(step.meta or {}))


#: op -> backward emitter.  ``max`` is deliberately absent: its
#: tie-splitting backward has no fixed numpy sequence worth mirroring, so
#: graphs differentiating through ``max`` fall back to the interpreter.
_BACKWARD = {
    "add": _bwd_add,
    "neg": _bwd_neg,
    "mul": _bwd_mul,
    "div": _bwd_div,
    "pow": _bwd_pow,
    "exp": _bwd_exp,
    "log": _bwd_log,
    "sqrt": _bwd_sqrt,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "relu": _bwd_relu,
    "abs": _bwd_abs,
    "clip": _bwd_clip,
    "sum": _bwd_sum,
    "matmul": _bwd_matmul,
    "transpose": _bwd_transpose,
    "reshape": _bwd_reshape,
    "getitem": _bwd_getitem,
    "scatter": _bwd_scatter,
    "concat": _bwd_concat,
    "stack": _bwd_stack,
    "where": _bwd_where,
    **dict.fromkeys(KERNELS, _bwd_kernel),
}

class TrainTape:
    """A compiled train step: one generated generator over planned buffers.

    The generated function runs in three resumable phases::

        gen = fn(slots, frame, P, M, V, lr, bias1, bias2)
        loss, *metrics = next(gen)   # forward
        next(gen)                    # backward into planned grad buffers
        next(gen)                    # in-place Adam update (StopIteration)

    ``P`` is the bound parameter arrays, ``M``/``V`` the optimizer's
    moment buffers (empty without a compiled update).  Locals persist
    across ``yield``, so backward kernels read forward activations
    directly; a single liveness plan spans all three phases, releasing
    each activation buffer right after the backward step that last reads
    it.  Parameter gradients get dedicated frame buffers (re-bound to
    ``param.grad`` after the backward phase); everything else shares the
    pooled frame exactly like the scoring tape.  The frame itself comes
    from :meth:`new_frame` and belongs to the caller.
    """

    def __init__(self, builder, loss_tensor, metric_tensors, optimizer):
        steps = builder.steps
        n = len(steps)
        loss_step = builder.tensor_step.get(id(loss_tensor))
        if loss_step is None:
            raise TraceUnsupported("the loss is not a traced op")
        metric_names = []
        metric_steps = []
        for name, tensor in metric_tensors.items():
            index = builder.tensor_step.get(id(tensor))
            if index is None:
                raise TraceUnsupported(f"metric {name!r} is not a traced op")
            metric_names.append(name)
            metric_steps.append(index)
        items = builder.backward_items
        if not items:
            raise TraceUnsupported("no backward closures were recorded")
        bw_pos = {}
        for t, b in enumerate(items):
            if b in bw_pos:
                raise TraceUnsupported("a backward closure ran twice")
            if steps[b].op not in _BACKWARD:
                raise TraceUnsupported(f"op {steps[b].op!r} has no backward kernel")
            bw_pos[b] = n + 1 + t

        # ---- storage plan, as the scoring tape's ----
        # Additionally, a backward kernel may read its op's own output
        # and any parent's data, so those storage roots stay alive until
        # the kernel's position.  (This is conservative for ops whose
        # backward only reads the incoming gradient — the interpreter
        # retains every activation through backward anyway, so peak
        # memory only improves.)
        pins = [(index, n) for index in [loss_step, *metric_steps]]
        for b, pos in bw_pos.items():
            pins.append((b, pos))
            pins += [(payload, pos) for ref_kind, payload in steps[b].refs
                     if ref_kind == _STEP]
        kinds, deaths = _liveness(steps, pins)

        # ---- one buffer pool shared by all three phases ----
        pool = _Pool()
        buffer_of = {}

        def acquire(shape, dtype, at):
            return pool.acquire((tuple(shape), np.dtype(dtype)), at)

        codegen = _Codegen()
        tags = []

        def tag_to(phase, op, site):
            while len(tags) < len(codegen.lines):
                tags.append((phase, op, site))

        def release_deaths(pos):
            for root in deaths.get(pos, ()):
                pool.release(buffer_of[root], pos + 1)

        # ---- phase 1: forward ----
        saved = {}
        for i, step in enumerate(steps):
            buf_id, scratch_ids = None, []
            if kinds[i] == "buffer":
                scratch = _forward_scratch(step)
                buf_id, *scratch_ids = [
                    acquire(shape, dtype, i)
                    for shape, dtype in [(step.out_data.shape, step.out_data.dtype), *scratch]]
                buffer_of[i] = buf_id
                # A fused op keeps the scratch its backward reads alive
                # until that backward step.
                persist = KERNELS[step.op].saved if scratch and i in bw_pos else 0
                for sid in scratch_ids[persist:]:
                    pool.release(sid, i + 1)
                if persist:
                    saved[i] = scratch_ids[:persist]
            _COMPILERS[step.op](codegen, i, step, kinds[i], buf_id, scratch_ids)
            tag_to("forward", step.op, builder.sites[i])
            release_deaths(i)

        elems = ", ".join(f"e{index}" for index in [loss_step, *metric_steps])
        codegen.emit(f"yield ({elems},)")
        tag_to("forward", None, None)

        # ---- phase 2: backward ----
        # Gradient buffers: pooled per traced step (released right after
        # the step's own backward runs), dedicated per parameter.
        grad_buf = {}
        initialized = set()
        graded_params = []

        seed = acquire(steps[loss_step].out_data.shape, steps[loss_step].out_data.dtype, n)
        grad_buf[("s", loss_step)] = seed
        initialized.add(("s", loss_step))
        codegen.emit(f"{codegen.buf(seed)}.fill(1.0)")
        tag_to("backward", None, None)
        release_deaths(n)

        for t, b in enumerate(items):
            pos = n + 1 + t
            step = steps[b]
            if ("s", b) not in grad_buf:
                raise TraceUnsupported(
                    f"op {step.op!r} ran backward before receiving a gradient")
            item_scratches = []
            targets = builder.parent_targets[b]

            # Both closures run only while this item emits.
            def scratch(shape, dtype):
                buf_id = acquire(shape, dtype, pos)
                item_scratches.append(buf_id)
                return codegen.buf(buf_id)

            def contribute(k, raw_shape, recipe):
                raw_shape = tuple(raw_shape)
                target = targets[k]
                if target is None:
                    return
                tkind, payload = target
                owner = (steps[payload].out_data if tkind == "s"
                         else builder.params[payload].data)
                tshape, tdtype = tuple(owner.shape), owner.dtype
                buf_id = grad_buf.get(target)
                if buf_id is None:
                    if tkind == "s":
                        buf_id = acquire(tshape, tdtype, pos)
                    else:
                        # Never pooled: it outlives the call as param.grad.
                        buf_id = pool.new((tshape, np.dtype(tdtype)))
                        graded_params.append((payload, buf_id))
                    grad_buf[target] = buf_id
                if step.out_data.dtype != tdtype:
                    raise TraceUnsupported("mixed-dtype gradient accumulation")
                T = codegen.buf(buf_id)
                first = target not in initialized
                initialized.add(target)
                if callable(recipe):
                    if raw_shape == tshape and first:
                        for line in recipe(T) or ():
                            codegen.emit(line)
                        return
                    S = scratch(raw_shape, tdtype)
                    for line in recipe(S) or ():
                        codegen.emit(line)
                    recipe = S
                src = recipe if raw_shape == tshape else \
                    f"ub({recipe}, {codegen.lit(tshape)})"
                codegen.emit(f"np.copyto({T}, {src})" if first
                             else f"np.add({T}, {src}, out={T})")

            ctx = _BwdCtx(
                codegen, step, b, f"e{b}",
                codegen.buf(grad_buf[("s", b)]), targets,
                [codegen.buf(sid) for sid in saved.get(b, ())], scratch, contribute,
            )
            _BACKWARD[step.op](ctx)
            tag_to("backward", step.op, builder.sites[b])
            for buf_id in [*item_scratches, grad_buf[("s", b)], *saved.get(b, ())]:
                pool.release(buf_id, pos + 1)
            release_deaths(pos)

        codegen.emit("yield None")
        tag_to("backward", None, None)

        # ---- phase 3: in-place Adam update ----
        graded = frozenset(k for k, _ in graded_params)
        index_of = {id(param): k for k, param in enumerate(builder.params)}
        layout = [index_of.get(id(param)) for param in optimizer.parameters]
        has_update = isinstance(optimizer, Adam)
        if has_update:
            base = n + 1 + len(items)
            lit = codegen.lit
            clip = optimizer.grad_clip
            decay = optimizer.weight_decay
            beta1, beta2 = optimizer.beta1, optimizer.beta2
            for j, k in enumerate(layout):
                if k not in graded:
                    continue
                data = builder.params[k].data
                shape, dtype = data.shape, data.dtype
                if any(moment[j].shape != shape or moment[j].dtype != dtype
                       for moment in (optimizer._m, optimizer._v)):
                    raise TraceUnsupported("an Adam moment differs from its parameter")
                pos = base + j
                grad = codegen.buf(grad_buf[("p", k)])
                p_ = codegen.bound("p", "P", k)
                m_ = codegen.bound("m", "M", j)
                v_ = codegen.bound("v", "V", j)
                a_id = acquire(shape, dtype, pos)
                b_id = acquire(shape, dtype, pos)
                A, B = codegen.buf(a_id), codegen.buf(b_id)
                codegen.emit(f"t{j} = {grad}")
                if clip is not None:
                    codegen.emit(f"n{j} = float(np.linalg.norm(t{j}))")
                    codegen.emit(f"if n{j} > {lit(clip)}:")
                    codegen.emit(f"    t{j} = np.multiply(t{j}, "
                                 f"{lit(clip)} / (n{j} + 1e-12))")
                if decay:
                    codegen.emit(f"t{j} = np.add(t{j}, "
                                 f"np.multiply({p_}, {lit(decay)}))")
                codegen.emit(f"np.multiply({m_}, {lit(beta1)}, out={m_})")
                codegen.emit(f"np.multiply(t{j}, {lit(1.0 - beta1)}, out={A})")
                codegen.emit(f"np.add({m_}, {A}, out={m_})")
                codegen.emit(f"np.multiply({v_}, {lit(beta2)}, out={v_})")
                codegen.emit(f"np.multiply(t{j}, t{j}, out={A})")
                codegen.emit(f"np.multiply({A}, {lit(1.0 - beta2)}, out={A})")
                codegen.emit(f"np.add({v_}, {A}, out={v_})")
                codegen.emit(f"np.divide({m_}, bias1, out={A})")
                codegen.emit(f"np.divide({v_}, bias2, out={B})")
                codegen.emit(f"np.sqrt({B}, out={B})")
                codegen.emit(f"np.add({B}, {lit(optimizer.eps)}, out={B})")
                codegen.emit(f"np.multiply({A}, lr, out={A})")
                codegen.emit(f"np.divide({A}, {B}, out={A})")
                codegen.emit(f"np.subtract({p_}, {A}, out={p_})")
                tag_to("update", f"adam[{j}]", None)
                pool.release(a_id, pos + 1)
                pool.release(b_id, pos + 1)

        # ---- assembly ----
        frame_lines = [
            f"    f{buf_id} = frame[{buf_id}]"
            for buf_id in sorted(codegen.used_buffers)
        ]
        prologue = codegen.slot_lines + codegen.bound_lines + frame_lines
        self.source, self._fn = _compile(
            "_train_step", "slots, frame, P, M, V, lr, bias1, bias2",
            prologue + codegen.lines,
            {"np": np, "C": tuple(codegen.consts), "ub": _unbroadcast}, _FILENAME)

        self._frame_specs = tuple(pool.specs)
        self._tags = tuple(tags)
        # Code lines start after the def line and the prologue:
        # lineno -> tag index.
        self._tag_offset = 2 + len(prologue)
        self.metric_names = tuple(metric_names)
        #: (parameter index, gradient buffer) per graded parameter, and
        #: the optimizer slots whose parameter gets no gradient.
        self._param_grads = tuple(graded_params)
        self._ungraded = tuple(j for j, k in enumerate(layout) if k not in graded)
        self._has_update = has_update
        #: step/buffer counts, exposed for tests and diagnostics.
        self.num_steps = n
        self.num_backward = len(items)
        self.num_buffers = len(pool.specs)

    def new_frame(self) -> list:
        """A fresh buffer frame for :attr:`_fn`; the caller owns it."""
        return _new_frame("train", [np.empty(shape, dtype)
                                    for shape, dtype in self._frame_specs])

    def start(self, slots, frame, params, optimizer):
        """The step generator over ``frame``, binding ``params`` (a list
        of the traced :func:`~repro.nn.jit.signature`) and, with a
        compiled update, ``optimizer``'s moments, ``lr`` and bias
        corrections for its next step."""
        moments, lr = ((), ()), getattr(optimizer, "lr", 0.0)
        bias1 = bias2 = 1.0
        if self._has_update:
            moments = optimizer._m, optimizer._v
            step = optimizer._step + 1
            bias1 = 1.0 - optimizer.beta1 ** step
            bias2 = 1.0 - optimizer.beta2 ** step
        return self._fn(slots, frame, [p.data for p in params], *moments,
                        lr, bias1, bias2)

    def _advance(self, gen, phase, stop_ok=False):
        """Run the generator one phase, mapping failures back to their op."""
        try:
            return next(gen)
        except StopIteration:
            if stop_ok:
                return None
            raise CompiledStepError(
                f"compiled train step ended early during {phase}", phase=phase
            ) from None
        except CompiledStepError:
            raise
        except Exception as error:
            self._reraise(error, phase)

    def _reraise(self, error, phase):
        lineno = None
        traceback = error.__traceback__
        while traceback is not None:
            if traceback.tb_frame.f_code.co_filename == _FILENAME:
                lineno = traceback.tb_lineno
            traceback = traceback.tb_next
        op = site = None
        if lineno is not None:
            index = lineno - self._tag_offset
            if 0 <= index < len(self._tags):
                tag_phase, op, site = self._tags[index]
                phase = tag_phase or phase
        where = f"op {op!r}" if op else "an untagged step"
        if site:
            where += f" (created at {site})"
        raise CompiledStepError(
            f"compiled train step failed during the {phase} phase at "
            f"{where}: {error}",
            op=op, phase=phase, site=site,
        ) from error

# ----------------------------------------------------------------------
# per-batch handles — one interpreted/tracing/compiled step each
# ----------------------------------------------------------------------
class _InterpretedHandle:
    """One train step on the reference interpreted path."""

    compiled = False

    def __init__(self, model, slots, optimizer):
        self._start(optimizer, *model._loss_graph(slots))

    def _start(self, optimizer, loss, metrics):
        self._optimizer = optimizer
        self._loss = loss
        self.loss_value = loss.item()
        self.metrics = {
            name: value.item() if hasattr(value, "item") else float(value)
            for name, value in metrics.items()
        }

    def backward(self):
        self._optimizer.zero_grad()
        self._loss.backward()

    def apply_update(self):
        self._optimizer.step()


class _LegacyHandle(_InterpretedHandle):
    """One train step through an overridden ``model.loss``.

    Instance-level ``loss`` overrides (tests poisoning the objective,
    user-wrapped losses) cannot be traced through the prelude/graph
    split, so they run the original ``model.loss(windows)`` protocol
    untouched.
    """

    def __init__(self, model, windows, optimizer):
        self._start(optimizer, *model.loss(windows))


class _TracingHandle(_InterpretedHandle):
    """One interpreted step recorded through the op hook.

    The batch trains on its own interpreted results — compilation
    happens as a side effect once the update lands, so the training
    trajectory never depends on whether the trace succeeds.
    """

    def __init__(self, owner, key, model, slots, params, optimizer):
        self._owner = owner
        self._key = key
        self._builder = _TrainTapeBuilder(slots, params)
        with op_hook(self._builder):
            loss, self._metric_tensors = model._loss_graph(slots)
        self._start(optimizer, loss, self._metric_tensors)

    def backward(self):
        with op_hook(self._builder):
            super().backward()

    def apply_update(self):
        super().apply_update()
        tape = None
        if self._builder.failed is None:
            try:
                tape = TrainTape(self._builder, self._loss,
                                 self._metric_tensors, self._optimizer)
            except TraceUnsupported:
                pass
        self._owner._store(self._key, tape)


class _CompiledHandle:
    """One train step replayed through a compiled tape."""

    compiled = True

    def __init__(self, tape, frame, slots, params, optimizer):
        self._tape = tape
        self._frame = frame
        self._params = params
        self._optimizer = optimizer
        self._gen = tape.start(slots, frame, params, optimizer)
        out = tape._advance(self._gen, "forward")
        self.loss_value = float(out[0])
        self.metrics = {
            name: float(value)
            for name, value in zip(tape.metric_names, out[1:])
        }

    def backward(self):
        tape = self._tape
        tape._advance(self._gen, "backward")
        frame = self._frame
        for k, buf_id in tape._param_grads:
            self._params[k].grad = frame[buf_id]
        for j in tape._ungraded:
            self._optimizer.parameters[j].grad = None

    def apply_update(self):
        tape = self._tape
        if tape._has_update:
            tape._advance(self._gen, "update", stop_ok=True)
            self._optimizer._step += 1
        else:
            # Unsupported optimizer: compiled forward/backward, with the
            # interpreted update reading the frame-bound gradients.
            self._optimizer.step()


def _optimizer_key(optimizer, params) -> tuple:
    """What a train tape bakes from the optimizer: its type, which bound
    parameter each of its slots updates, and Adam's hyper-parameters and
    moment dtypes (``lr`` and the step count are replay arguments)."""
    index_of = {id(param): k for k, param in enumerate(params)}
    layout = tuple(index_of.get(id(param)) for param in optimizer.parameters)
    if not isinstance(optimizer, Adam):
        return (type(optimizer), layout)
    return (type(optimizer), layout, optimizer.beta1, optimizer.beta2, optimizer.eps,
            optimizer.weight_decay, optimizer.grad_clip,
            tuple(m.dtype for m in optimizer._m), tuple(v.dtype for v in optimizer._v))


class TrainStep:
    """Dispatches train steps to compiled tapes, specializing per batch.

    One instance lives on each trainer.  Its tapes live in the model's
    architecture-wide :class:`repro.nn.jit.TapeCache` (``_tapes`` is the
    view of its train entries), keyed by ``(batch shape, dtype, fused
    policy, parameter signature, optimizer key)``, so every trainer of
    the architecture — a second fit, a refit, a restored checkpoint —
    replays them with its own parameters and moments bound.  At most
    ``cache_size`` train entries stay cached; unsupported keys are
    negative-cached.  The frames the tapes replay over belong to this
    step and die with it.  ``begin`` runs the model's loss prelude
    exactly once per batch on every path, so the RNG stream is identical
    whether a batch interprets, traces or replays.
    """

    def __init__(self, model, optimizer, enabled=True, cache_size=8):
        self.model = model
        self.optimizer = optimizer
        self.enabled = bool(enabled)
        self.cache_size = int(cache_size)
        self._cache = model._tape_cache
        self._tapes = self._cache.view("train")
        #: key -> (tape, frame) for the tapes this step has replayed and
        #: the cache still holds.
        self._frames = {}
        #: diagnostics for the benches: tape-LRU evictions, trace count,
        #: compiled replays, interpreted fallbacks.
        self.evictions = 0
        self.traces = 0
        self.replays = 0
        self.fallbacks = 0

    def begin(self, windows):
        """Run one batch's forward; returns a step handle.

        The handle exposes ``loss_value``/``metrics`` immediately, then
        ``backward()`` and ``apply_update()`` drive the remaining
        phases — on whichever execution path was selected.
        """
        model = self.model
        if "loss" in vars(model):
            # model.loss was replaced on the instance; respect it.
            self.fallbacks += 1
            return _LegacyHandle(model, windows, self.optimizer)
        with default_dtype(model.compute_dtype):
            slots = model._loss_prelude(windows)
            if (not self.enabled or not train_jit_enabled()
                    or _HOOK_STATE.hooks):
                # An active hook means detect_anomaly (or another
                # sanitizer) is watching: run interpreted so per-op
                # attribution is exact.
                self.fallbacks += 1
                return _InterpretedHandle(model, slots, self.optimizer)
            arr = np.asarray(windows)
            params = model._params
            key = (arr.shape, str(arr.dtype), fused_enabled(), signature(params),
                   _optimizer_key(self.optimizer, params))
            tape = self._cache.lookup("train", key)
            if tape is _UNSUPPORTED:
                self.fallbacks += 1
                return _InterpretedHandle(model, slots, self.optimizer)
            if tape is not None:
                self.replays += 1
                return _CompiledHandle(tape, self._frame(key, tape), slots, params,
                                       self.optimizer)
            return _TracingHandle(self, key, model, slots, params, self.optimizer)

    def _frame(self, key, tape):
        held = self._frames.get(key)
        if held is not None and held[0] is tape:
            return held[1]
        held = None
        self._drop_stale_frames()  # a re-traced key's old frame goes too
        frame = tape.new_frame()
        self._frames[key] = (tape, frame)
        return frame

    def _drop_stale_frames(self):
        """Free the frames of tapes the shared cache no longer holds (evicted
        by this step or by another trainer of the architecture)."""
        cached = self._tapes._snapshot()
        for key, (tape, _) in list(self._frames.items()):
            if cached.get(key) is not tape:
                del self._frames[key]

    def _store(self, key, tape):
        if tape is None:
            self.fallbacks += 1
        else:
            self.traces += 1
        self.evictions += self._cache.store("train", key, tape, self.cache_size)
        if self._frames:
            self._drop_stale_frames()
