#!/usr/bin/env python3
"""The paper's motivating SoC: a media producer feeding a protocol stack.

Section 1 motivates heterogeneous SoCs with exactly this split: a media
processor decodes frames while a second processor runs the TCP/IP
stack.  This example builds that pipeline on the PF2 platform:

* the ARM920T ("media processor") produces frames into a two-slot ring
  buffer in shared memory;
* the PowerPC755 ("protocol stack") checksums each frame, storing the
  result where the host (this script) can verify it;
* slot ownership is handed over through uncached flags.

The pipeline runs under all three coherence configurations.  Under the
software solution the producer must drain each frame and the consumer
must invalidate its stale copies; under the proposed solution the
wrappers and snoop logic do all of that in hardware, transparently —
the programs contain no cache-management instructions at all, which is
the paper's "transparent view of shared data" claim.

Run:  python examples/media_pipeline.py
"""

from repro import CoherenceChecker, MicrobenchSpec
from repro.core import SCRATCH_BASE, SHARED_BASE, append_isr
from repro.cpu import Assembler
from repro.sync import emit_drain_block, emit_invalidate_block
from repro.workloads import make_platform

N_FRAMES = 8
FRAME_WORDS = 16          # two cache lines per frame
FRAME_BYTES = FRAME_WORDS * 4
N_SLOTS = 2
LINE_BYTES = 32

FLAGS = SCRATCH_BASE                 # one uncached flag word per slot
CHECKSUMS = SCRATCH_BASE + 0x100     # uncached checksum table


def slot_base(slot):
    return SHARED_BASE + slot * FRAME_BYTES


def build_producer(solution, mailbox_base=None):
    asm = Assembler(name="producer")
    for frame in range(N_FRAMES):
        slot = frame % N_SLOTS
        asm.li(1, FLAGS + 4 * slot)
        asm.label(f"wait_free_{frame}")
        asm.ld(2, 1)
        asm.bne(2, 0, f"wait_free_{frame}")     # consumer still owns it
        asm.li(3, slot_base(slot))
        asm.li(4, frame * 256)
        asm.li(5, FRAME_WORDS)
        asm.label(f"fill_{frame}")
        asm.st(4, 3)
        asm.addi(4, 4, 1)
        asm.addi(3, 3, 4)
        asm.subi(5, 5, 1)
        asm.bne(5, 0, f"fill_{frame}")
        if solution == "software":
            # Push the frame to memory before publishing it.
            emit_drain_block(
                asm, slot_base(slot), FRAME_WORDS * 4 // LINE_BYTES,
                LINE_BYTES, label_stem=f"p{frame}",
            )
        asm.li(2, frame + 1)
        asm.st(2, 1)                             # publish: flag = frame number
    asm.halt()
    if solution == "proposed" and mailbox_base is not None:
        append_isr(asm, mailbox_base)
    return asm.assemble()


def build_consumer(solution):
    asm = Assembler(name="consumer")
    for frame in range(N_FRAMES):
        slot = frame % N_SLOTS
        asm.li(1, FLAGS + 4 * slot)
        asm.li(6, frame + 1)
        asm.label(f"wait_full_{frame}")
        asm.ld(2, 1)
        asm.bne(2, 6, f"wait_full_{frame}")
        if solution == "software":
            # Discard possibly stale copies of this slot before reading.
            emit_invalidate_block(
                asm, slot_base(slot), FRAME_WORDS * 4 // LINE_BYTES,
                LINE_BYTES, label_stem=f"c{frame}",
            )
        asm.li(3, slot_base(slot))
        asm.li(4, 0)                             # checksum accumulator
        asm.li(5, FRAME_WORDS)
        asm.label(f"sum_{frame}")
        asm.ld(7, 3)
        asm.add(4, 4, 7)
        asm.addi(3, 3, 4)
        asm.subi(5, 5, 1)
        asm.bne(5, 0, f"sum_{frame}")
        asm.li(3, CHECKSUMS + 4 * frame)
        asm.st(4, 3)                             # uncached: host-visible
        asm.st(0, 1)                             # release the slot
    asm.halt()
    return asm.assemble()


def expected_checksum(frame):
    return sum(frame * 256 + i for i in range(FRAME_WORDS))


def run_pipeline(solution):
    spec = MicrobenchSpec(scenario="bcs", solution=solution)  # config only
    platform = make_platform(spec)
    checker = CoherenceChecker(platform)
    mailbox = platform.mailbox_base(1) if solution == "proposed" else None
    platform.load_programs(
        {
            "arm920t": build_producer(solution, mailbox),
            "ppc755": build_consumer(solution),
        }
    )
    elapsed = platform.run()
    checksums = [
        platform.memory.peek(CHECKSUMS + 4 * frame) for frame in range(N_FRAMES)
    ]
    ok = all(
        checksums[frame] == expected_checksum(frame) for frame in range(N_FRAMES)
    )
    return elapsed, ok, checker


def main():
    print(f"media pipeline: {N_FRAMES} frames of {FRAME_WORDS} words, "
          f"{N_SLOTS}-slot ring buffer\n")
    baseline = None
    for solution in ("disabled", "software", "proposed"):
        elapsed, ok, checker = run_pipeline(solution)
        if baseline is None:
            baseline = elapsed
        status = "checksums OK" if ok else "CHECKSUM MISMATCH"
        print(
            f"{solution:<10} {elapsed:>9} ns  ratio={elapsed / baseline:5.3f}  "
            f"{status}; {checker.summary()}"
        )
        assert ok, f"{solution}: data corruption in the pipeline"
        assert checker.clean, checker.violations[:3]
    print(
        "\nNote how the 'proposed' programs carry no DCBF/DCBI at all —\n"
        "the wrappers and snoop logic keep the frames coherent in hardware."
    )


if __name__ == "__main__":
    main()
