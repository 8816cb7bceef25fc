"""Every function and class under ``src/repro`` is reached from outside
``tests/``: some module of the package, a bench, perfbench, a tool or an
example names it.  A definition that only its own tests call is code no
run executes -- delete it together with the tests that check only it,
or name it in :data:`KEEP` with the reason it stays.

A reference is an ``ast.Name`` or ``ast.Attribute`` spelling the
definition's name anywhere in those trees except inside the definition
itself.  Matching is by bare name, so a same-named attribute elsewhere
counts (the scan errs towards keeping); an f-string expression counts,
a docstring or comment does not.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
REACHING = ("src", "benchmarks", "perfbench", "tools", "examples")

#: definitions that stay although nothing outside ``tests/`` names them
KEEP = {
    # back a paper claim; invariant-checked runs are to call them
    "repro.mem.address_space:AddressSpace.stack_used_bytes":
        "stack high-water under 42 KB, why the stack goes untracked (4.2)",
    "repro.checkpoint.uncoordinated:in_flight_at":
        "near-empty channels at burst boundaries, where cuts are taken",
    "repro.proc.allocator:Allocator.check_invariants":
        "free-list sanity (sorted, coalesced, inside the heap)",
    # oracles that other tests read the system through
    "repro.mem.address_space:AddressSpace.mmap_segments":
        "lists live mmap regions for the mapping and capture tests",
    "repro.mem.address_space:AddressSpace.dirty_pages":
        "IWS in pages: the dirty-count oracle of the tracker tests",
    "repro.mem.pagetable:PageTable.dirty_indices":
        "dirty bitmap as indices: the page-table tests' oracle",
    "repro.mpi.communicator:RankComm._unexpected":
        "unexpected-queue view the matching tests compare against",
    "repro.checkpoint.recovery:RecoveryManager.restore_rank":
        "the documented standalone restore of one rank",
    "repro.checkpoint.recovery:RecoveryManager.restore_all":
        "the documented standalone restore of a whole job",
    "repro.net.topology:Topology.diameter":
        "BFS oracle for the closed-form fat-tree hop counts",
    "repro.faults.plan:FaultPlan.to_file":
        "writer of the --plan file format that from_file reads",
    "repro.cluster.node:NodeSpec.max_dirty_rate":
        "physical bound the measured-IB sanity tests compare against",
    "repro.checkpoint.transport:DrainQueue.consistent":
        "drain-queue ledger conservation, the transport property tests",
    "repro.sim.engine:Engine.stopped":
        "stop()/resume seam the injector and transport tests observe",
    "repro.sim.process:Future.resolved":
        "completion state the process, disk and matching tests poll",
    # perfbench/tracing.py wraps these by name; a missing one is a KeyError
    "repro.mpi.communicator:RankComm.gather":
        "wrapped by perfbench's mpi layer",
    "repro.mpi.communicator:RankComm.allgather":
        "wrapped by perfbench's mpi layer",
    # part of an exported API surface a user program builds on
    "repro.apps.registry:build_app":
        "builds a paper app by name (the repro.apps entry point)",
    "repro.feasibility.availability:efficiency_curve":
        "Young/Daly efficiency samples (exported availability model)",
    "repro.metrics.stats:mean_omitting_first":
        "section 5's drop-the-first-run averaging (exported)",
    "repro.proc.process:Process.mprotect":
        "mprotect of one page range, the syscall model's own entry",
    "repro.checkpoint.cow:CowWriteout.active":
        "whether a copy-on-write writeout is still draining",
}


def _definitions():
    """``(key, node)`` for every function and class under src/repro,
    dunder methods left out (the language calls those)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qual = prefix + child.name
                    if not (child.name.startswith("__")
                            and child.name.endswith("__")):
                        yield f"{module}:{qual}", child
                    stack.append((child, qual + "."))
                else:
                    stack.append((child, prefix))


def _names(node) -> Counter:
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unreached() -> set[str]:
    """Keys of the definitions nothing outside ``tests/`` names."""
    total = Counter()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            total += _names(ast.parse(path.read_text(), str(path)))
    return {key for key, node in _definitions()
            if total[node.name] - _names(node)[node.name] <= 0}


UNREACHED = unreached()


def test_every_definition_is_reached_or_kept():
    test_only = sorted(UNREACHED - set(KEEP))
    assert not test_only, (
        "only tests reach these; delete them or add them to KEEP with a "
        "reason:\n  " + "\n  ".join(test_only))


def test_keep_list_has_no_stale_entries():
    # an entry whose definition is gone, or that a run now reaches,
    # leaves the list
    stale = sorted(set(KEEP) - UNREACHED)
    assert not stale, f"no longer test-only or gone: {stale}"
