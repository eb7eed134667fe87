"""Tests for the columnar trace pipeline: packed-word encoding,
compile <-> object round-trips, barrier-sequence validation, the
compiled-program cache's cross-protocol reuse contract, and engine
equivalence between the columnar and legacy object paths."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addressing import AddressSpace
from repro.common.errors import TraceError
from repro.common.params import MachineParams
from repro.common.records import (
    MAX_ADDR,
    MAX_THINK,
    Access,
    Barrier,
    TraceView,
    as_columns,
    compile_trace,
    decode_item,
    encode_access,
    encode_barrier,
    validate_barrier_sequences,
)
from repro.experiments.executor import Executor, Job, _job_payload
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.osint.placement import first_touch_homes
from repro.sim.engine import simulate
from repro.workloads import registry
from repro.workloads.base import TraceBuilder
from repro.workloads.compile import CompiledProgram

from tests.conftest import tiny_config

MACHINE = MachineParams(nodes=2, cpus_per_node=2)
SPACE = AddressSpace(block_size=64, page_size=512)


# -- encoding ----------------------------------------------------------

class TestEncoding:
    def test_access_round_trip_extremes(self):
        for addr in (0, 1, MAX_ADDR):
            for think in (0, 1, MAX_THINK):
                for is_write in (False, True):
                    item = decode_item(encode_access(addr, is_write, think))
                    assert item == Access(addr, is_write, think)

    def test_barrier_round_trip(self):
        for ident in (0, 1, 2 ** 40):
            assert decode_item(encode_barrier(ident)) == Barrier(ident)

    def test_barrier_words_are_negative_access_words_are_not(self):
        assert encode_barrier(0) < 0
        assert encode_access(0, False, 0) >= 0

    def test_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            encode_access(MAX_ADDR + 1, False, 0)
        with pytest.raises(TraceError):
            encode_access(0, False, MAX_THINK + 1)
        with pytest.raises(TraceError):
            encode_access(-1, False, 0)
        with pytest.raises(TraceError):
            encode_barrier(-1)

    def test_builder_rejects_unencodable_references(self):
        tb = TraceBuilder(MACHINE)
        with pytest.raises(TraceError):
            tb.read(0, MAX_ADDR + 1)
        with pytest.raises(TraceError):
            tb.write(0, 0, think=MAX_THINK + 1)
        with pytest.raises(TraceError):
            tb.first_touch(0, [-1])


# -- property: compile + adapter view is lossless ----------------------

items_strategy = st.lists(
    st.one_of(
        st.builds(
            Access,
            addr=st.integers(min_value=0, max_value=MAX_ADDR),
            is_write=st.booleans(),
            think=st.integers(min_value=0, max_value=MAX_THINK),
        ),
        st.builds(Barrier, ident=st.integers(min_value=0, max_value=2 ** 30)),
    ),
    max_size=80,
)


@given(items=items_strategy)
@settings(max_examples=200, deadline=None)
def test_compile_and_view_round_trip(items):
    column = compile_trace(items)
    view = TraceView(column)
    assert list(view) == items
    assert len(view) == len(items)
    assert [view[i] for i in range(len(view))] == items
    assert view[:] == items
    # Round-tripping the decoded items compiles to the same words.
    assert compile_trace(view) == column


@given(items=items_strategy)
@settings(max_examples=100, deadline=None)
def test_view_equality_matches_object_lists(items):
    column = compile_trace(items)
    assert TraceView(column) == items
    assert TraceView(column) == TraceView(compile_trace(items))
    if items:
        assert TraceView(column) != items[:-1]


# -- validation --------------------------------------------------------

class TestBarrierValidation:
    def test_matching_sequences_pass(self):
        cols = [
            compile_trace([Access(0), Barrier(0), Barrier(1)]),
            compile_trace([Barrier(0), Access(64), Barrier(1)]),
        ]
        assert validate_barrier_sequences(cols) == [0, 1]

    def test_mismatched_sequences_rejected(self):
        cols = [
            compile_trace([Barrier(0), Barrier(1)]),
            compile_trace([Barrier(1), Barrier(0)]),
        ]
        with pytest.raises(TraceError, match="barrier sequence"):
            validate_barrier_sequences(cols)

    def test_missing_barrier_rejected(self):
        cols = [compile_trace([Barrier(0)]), compile_trace([Access(0)])]
        with pytest.raises(TraceError, match="barrier sequence"):
            validate_barrier_sequences(cols)

    def test_compiled_program_validates_foreign_columns(self):
        good = CompiledProgram(
            "ok",
            columns=[
                compile_trace([Access(0), Barrier(0)]),
                compile_trace([Barrier(0)]),
            ],
        )
        assert good.barrier_ids == [0]
        with pytest.raises(TraceError, match="barrier sequence"):
            CompiledProgram(
                "bad",
                columns=[
                    compile_trace([Barrier(0)]),
                    compile_trace([Barrier(1)]),
                ],
            )

    def test_compiled_program_validates_object_traces(self):
        with pytest.raises(TraceError, match="barrier sequence"):
            CompiledProgram("bad", traces=[[Barrier(0)], [Barrier(1)]])

    def test_engine_still_rejects_mismatched_object_traces(self):
        with pytest.raises(TraceError, match="barrier sequence"):
            simulate(tiny_config("ccnuma"), [[Barrier(0)], [Barrier(1)]])

    def test_engine_rejects_mismatched_raw_columns(self):
        # Hand-built columns (e.g. truncated by a user) are untrusted:
        # the engine must fail fast, not deadlock mid-run.
        cols = [compile_trace([Barrier(0)]), compile_trace([Barrier(1)])]
        with pytest.raises(TraceError, match="barrier sequence"):
            simulate(tiny_config("ccnuma"), cols)

    def test_unknown_item_rejected(self):
        with pytest.raises(TraceError, match="unknown trace item"):
            compile_trace([Access(0), "bogus"])

    def test_raw_ints_and_bools_rejected(self):
        # A bare int in an object trace is a caller bug (a stray
        # address, or a bool via int subclassing), not a packed word.
        with pytest.raises(TraceError, match="unknown trace item"):
            compile_trace([Access(0), 4096])
        with pytest.raises(TraceError, match="unknown trace item"):
            compile_trace([True])


# -- compiled program --------------------------------------------------

class TestCompiledProgram:
    def build_program(self):
        tb = TraceBuilder(MACHINE)
        tb.first_touch(0, [0, 512])
        tb.barrier()
        tb.read(1, 64, think=3)
        tb.write(2, 512 + 64)
        tb.barrier()
        return tb.build("t", description="d")

    def test_counters_match_scan(self):
        prog = self.build_program()
        assert prog.total_accesses == 4
        assert prog.barrier_count == 2
        assert prog.access_counts == [2, 1, 1, 0]
        # Counters agree with an explicit object-view scan.
        scanned = sum(
            1 for t in prog.traces for i in t if isinstance(i, Access)
        )
        assert scanned == prog.total_accesses

    def test_nbytes_is_buffer_footprint(self):
        prog = self.build_program()
        items = prog.total_accesses + prog.barrier_count * prog.cpu_count
        assert prog.nbytes == items * 8

    def test_pages_touched(self):
        prog = self.build_program()
        assert prog.pages_touched(SPACE) == {0, 1}

    def test_first_touch_homes_memoized_and_consistent(self):
        prog = self.build_program()
        h1 = prog.first_touch_homes(MACHINE, SPACE)
        h2 = prog.first_touch_homes(MACHINE, SPACE)
        assert h1 is h2  # memoized per (machine, page) shape
        assert h1 == first_touch_homes(
            [list(t) for t in prog.traces], MACHINE, SPACE
        )

    def test_columns_pickle_compactly(self):
        import pickle

        prog = self.build_program()
        payload = pickle.dumps(prog.columns)
        back = pickle.loads(payload)
        assert back == prog.columns
        assert len(payload) < prog.nbytes + 512

    def test_as_columns_passthrough_shares_buffers(self):
        prog = self.build_program()
        cols, converted = as_columns(prog)
        assert not converted
        assert all(a is b for a, b in zip(cols, prog.columns))
        cols2, converted2 = as_columns(prog.traces)
        assert not converted2
        assert all(a is b for a, b in zip(cols2, prog.columns))

    def test_build_transfers_ownership_and_resets_builder(self):
        tb = TraceBuilder(MACHINE)
        tb.read(0, 0)
        tb.barrier()
        prog = tb.build("first")
        assert prog.total_accesses == 1
        # Post-build appends land in a fresh builder, never desyncing
        # the program's trusted counters.
        tb.read(0, 64)
        assert prog.total_accesses == 1
        assert len(prog.columns[0]) == 2  # one access + one barrier
        assert len(tb.columns[0]) == 1
        tb.barrier()
        second = tb.build("second")
        assert second.barrier_ids == [0]
        assert prog.columns[0] is not second.columns[0]

    def test_traces_kwarg_builds_from_objects(self):
        prog = CompiledProgram(
            "legacy",
            traces=[[Access(0), Barrier(0)], [Barrier(0)]],
        )
        assert prog.total_accesses == 1
        assert prog.barrier_count == 1
        assert isinstance(prog.columns[0], array)


# -- engine equivalence ------------------------------------------------

@given(
    items0=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4 * 512 - 1),
            st.booleans(),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=40,
    ),
    protocol=st.sampled_from(["ccnuma", "scoma", "rnuma", "ideal"]),
)
@settings(max_examples=60, deadline=None)
def test_columnar_and_object_paths_simulate_identically(items0, protocol):
    objects = [
        [Access(a, w, th) for a, w, th in items0] + [Barrier(0)],
        [Barrier(0)],
    ]
    compiled = CompiledProgram("equiv", traces=[list(t) for t in objects])
    config = tiny_config(protocol)
    via_objects = simulate(config, [list(t) for t in objects])
    via_program = simulate(config, compiled)
    via_columns = simulate(config, compiled.columns)
    assert via_objects.exec_cycles == via_program.exec_cycles == via_columns.exec_cycles
    assert via_objects.stats.as_dict() == via_program.stats.as_dict()
    assert via_objects.stats.as_dict() == via_columns.stats.as_dict()


# -- cross-protocol reuse ----------------------------------------------

class TestCrossProtocolReuse:
    def setup_method(self):
        registry.clear_cache()
        registry.reset_build_counts()

    def teardown_method(self):
        registry.clear_cache()
        registry.reset_build_counts()

    def test_four_protocol_sweep_generates_each_workload_once(self):
        configs = (ideal(), cc_config(), scoma_config(), rnuma_config())
        jobs = [Job("em3d", cfg, 0.1) for cfg in configs]
        results = Executor(workers=1).run(jobs)
        assert len(results) == 4
        counts = registry.build_counts()
        key = registry.program_key(
            "em3d", configs[0].machine, configs[0].space, 0.1
        )
        assert counts == {key: 1}, (
            "a four-protocol sweep must generate the workload trace "
            f"exactly once, got {counts}"
        )

    def test_parallel_payloads_reuse_one_build_and_one_placement(self):
        configs = (ideal(), cc_config(), scoma_config(), rnuma_config())
        jobs = [Job("em3d", cfg, 0.1) for cfg in configs]
        payloads = [_job_payload(job) for job in jobs]
        counts = registry.build_counts()
        assert sum(counts.values()) == 1
        # Every protocol ships the same program, placement map warmed.
        first_program = payloads[0][1]
        assert first_program._homes_cache  # memoized before shipping
        for _, program in payloads[1:]:
            assert program is first_program

    def test_payload_pickles_with_warm_placement(self, monkeypatch):
        import pickle

        config, program = _job_payload(Job("em3d", cc_config(), 0.1))
        back_config, back_program = pickle.loads(
            pickle.dumps((config, program))
        )
        assert back_program.columns == program.columns
        assert back_program._homes_cache == program._homes_cache

        # The per-CPU profile ships too: a worker never rescans columns.
        def rescan(column):
            raise AssertionError("a shipped program rescanned its columns")

        monkeypatch.setattr("repro.workloads.compile.column_profile", rescan)
        assert back_program.per_cpu_profile() == program.per_cpu_profile()
        result = simulate(back_config, back_program)
        assert result.exec_cycles > 0


class TestPerCpuProfile:
    def test_profile_counts_accesses_think_and_runs(self):
        from repro.workloads.compile import CompiledProgram

        traces = [
            [Access(0, think=3), Access(64, think=2), Barrier(0),
             Access(128, think=5)],
            [Barrier(0), Access(0, think=1)],
        ]
        program = CompiledProgram("profiled", traces=traces)
        profile = program.per_cpu_profile()
        assert profile[0] == (3, 10, 2)  # two barrier-free stretches
        assert profile[1] == (1, 1, 1)   # leading barrier: one stretch
        # Memoized: the same list object comes back.
        assert program.per_cpu_profile() is profile

    def test_run_length_stats_summary(self):
        from repro.workloads.compile import CompiledProgram

        traces = [
            [Access(0)] * 4 + [Barrier(0)] + [Access(0)] * 2,
            [Access(0)] * 3 + [Barrier(0)] + [Access(0)] * 3,
        ]
        program = CompiledProgram("runs", traces=traces)
        stats = program.run_length_stats()
        assert stats["runs"] == 4
        assert stats["mean_run_length"] == pytest.approx(3.0)

    def test_engine_uses_program_profile_for_busy_cycles(self):
        # busy_cycles must equal sum(think + 1) over the node's
        # accesses whichever accounting path computed it.
        from tests.conftest import tiny_config

        config = tiny_config("ccnuma")
        traces = [
            [Access(0, think=3), Access(64, think=0)],
            [Access(512, think=7)],
        ]
        result = simulate(config, traces, {0: 0, 1: 1})
        assert result.stats.node(0).busy_cycles == (3 + 1) + (0 + 1)
        assert result.stats.node(1).busy_cycles == 7 + 1
