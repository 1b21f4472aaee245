"""Cross-validation: the abstract model checker vs the simulator.

Hypothesis draws random protocol pairs *and random wrapper policies*
(not just the correct ones from the reduction) and checks consistency:

* if the exhaustive model says a configuration is SAFE, the simulator
  must run the conflict-heavy pattern without checker violations;
* if the simulator finds a violation, the model must have found one
  too (the model over-approximates interleavings, so the converse —
  model-unsafe but this particular simulated pattern clean — is fine).

Disagreement in the asserted direction means one of the two oracles
mis-models the hardware; this is the strongest internal-consistency
check in the suite.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SHARED_BASE, Platform, PlatformConfig
from repro.core.reduction import SharedMode, WrapperPolicy
from repro.cpu import preset_generic
from repro.verify import CoherenceChecker
from repro.verify.model_check import _SystemModel, check_pair
from repro.cache.line import State

PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI")

policy_strategy = st.builds(
    WrapperPolicy,
    convert_read_to_write=st.booleans(),
    shared_mode=st.sampled_from(list(SharedMode)),
    allow_supply=st.just(True),  # supply legality is enforced elsewhere
)

CONFLICT = [
    (0, "read"), (1, "read"), (1, "write"), (0, "read"),
    (0, "write"), (1, "read"), (1, "write"), (0, "write"),
    (0, "read"), (1, "read"),
]


def model_verdict(p0, p1, policies):
    """Run the exhaustive model with explicit policies."""
    from collections import deque

    from repro.verify.model_check import ModelState, _swmr_violated

    model = _SystemModel((p0, p1), policies)
    initial = ModelState((State.INVALID, State.INVALID), (False, False), True)
    seen = {initial}
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        for event in ("read0", "read1", "write0", "write1", "evict0", "evict1"):
            next_state, bad = model.step(current, event)
            if bad is None and _swmr_violated(next_state.states):
                bad = "swmr"
            if bad is not None:
                return False  # unsafe
            if next_state not in seen:
                seen.add(next_state)
                queue.append(next_state)
    return True  # safe


def simulator_verdict(p0, p1, policies):
    """Run the conflict pattern on the simulator with explicit policies."""
    platform = Platform(
        PlatformConfig(
            cores=(preset_generic("p0", p0), preset_generic("p1", p1)),
        )
    )
    for wrapper, policy in zip(platform.wrappers, policies):
        wrapper.policy = policy
    checker = CoherenceChecker(platform)
    controllers = platform.controllers

    def driver():
        value = 1
        for proc, op in CONFLICT:
            if op == "read":
                yield from controllers[proc].read(SHARED_BASE)
            else:
                yield from controllers[proc].write(SHARED_BASE, value)
                value += 1

    platform.sim.process(driver())
    platform.sim.run(detect_deadlock=False)
    checker.check_all_lines()
    return checker.clean


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    p0=st.sampled_from(PROTOCOLS),
    p1=st.sampled_from(PROTOCOLS),
    policy0=policy_strategy,
    policy1=policy_strategy,
)
def test_property_model_safe_implies_simulator_clean(p0, p1, policy0, policy1):
    policies = (policy0, policy1)
    if model_verdict(p0, p1, policies):
        assert simulator_verdict(p0, p1, policies), (
            f"model says SAFE but simulator found a violation for "
            f"{p0}+{p1} with {policies}"
        )


@settings(max_examples=20, deadline=None)
@given(
    p0=st.sampled_from(PROTOCOLS),
    p1=st.sampled_from(PROTOCOLS),
)
def test_property_reduction_policies_safe_in_both(p0, p1):
    assert check_pair(p0, p1, wrapped=True).ok
    from repro.core.reduction import reduce_protocols

    policies = reduce_protocols([p0, p1]).policies
    assert simulator_verdict(p0, p1, policies)
