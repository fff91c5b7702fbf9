"""Preparation steps, each run in a process of its own so that neither
training's time nor its memory reaches the measured process.

    python perfbench/prep.py train  --workload W --out CKPT
    python perfbench/prep.py inputs --workload W --seed N --seconds T \\
        --checkpoint CKPT --out INPUTS.json

``train`` fits a short fixed budget (serving cost does not depend on the
weights' values) and saves a checkpoint.  ``inputs`` cold-loads that
checkpoint, generates the workload's inputs from the seed and computes
the reference ranking of every distinct input through the sequential
pipeline, which every served answer is later compared to.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from workloads import WORKLOADS, model_choice, online_schedule, synth_pool

#: Training budget: enough to exercise ``fit`` end to end, far too little
#: to converge.  Serving cost depends on the encoder's shape, not its weights.
TRAIN_SNIPPETS = (16, 4, 4)


def train(workload, out: str) -> None:
    from repro.api import Linker, LinkerConfig
    from repro.core import ModelConfig, TrainConfig
    from repro.datasets import load_dataset

    variant, layers = model_choice(workload)
    dataset = load_dataset("MDX", scale=workload.scale, use_cache=False)
    config = LinkerConfig(
        model=ModelConfig(variant=variant, num_layers=layers),
        train=TrainConfig(epochs=1, patience=1, use_hard_negatives=False),
    )
    linker = Linker.from_config(config, dataset.kb)
    n_train, n_val, n_test = TRAIN_SNIPPETS
    linker.fit(dataset.train[:n_train], dataset.val[:n_val], dataset.test[:n_test])
    linker.save(out)


def _strip_gold(snippet):
    """The snippet as the program receives it: the ambiguous mention's
    gold link is what the program must find, so it is blanked."""
    mentions = list(snippet.mentions)
    target = mentions[snippet.ambiguous_index]
    mentions[snippet.ambiguous_index] = replace(target, link_id="")
    return replace(snippet, mentions=mentions)


def _ranking(prediction) -> dict:
    return {"ids": list(prediction.ranked_entities), "scores": list(prediction.scores)}


def _candidates(pipeline, snippet) -> int:
    mention = snippet.ambiguous_mention
    return len(pipeline.candidate_ids(mention.mention, category=mention.category))


def offline_inputs(workload, seed: int, pipeline) -> dict:
    from repro.graph.index import InvertedIndex

    index = InvertedIndex(pipeline.kb)
    pool = synth_pool(
        pipeline.kb,
        workload,
        seed,
        keep=lambda s: bool(index.lookup(s.ambiguous_mention.mention)) == workload.index_hit,
    )
    gold = [s.ambiguous_mention.link_id for s in pool]
    inputs = [_strip_gold(s) for s in pool]
    return {
        "snippets": [s.to_dict() for s in inputs],
        "gold": gold,
        "index_hit": [workload.index_hit] * len(inputs),
        "candidates": [_candidates(pipeline, s) for s in inputs],
        "reference": [_ranking(pipeline.disambiguate_snippet(s)) for s in inputs],
    }


def online_inputs(workload, seed: int, seconds: float, pipeline) -> dict:
    def parses(snippet) -> bool:
        try:
            pipeline.snippet_from_text(snippet.text, snippet.ambiguous_mention.mention)
        except ValueError:
            return False
        return True

    pool = synth_pool(pipeline.kb, workload, seed, keep=parses)
    warmup, picks, offsets = online_schedule(workload, seed, seconds)
    items, gold, hits, sizes, reference = [], [], [], [], []
    slot = {}
    for i in sorted(set(warmup.tolist()) | set(picks.tolist())):
        snippet = pool[i]
        text, mention = snippet.text, snippet.ambiguous_mention.mention
        slot[i] = len(items)
        items.append({"text": text, "mention": mention})
        gold.append(snippet.ambiguous_mention.link_id)
        parsed = pipeline.snippet_from_text(text, mention)
        hits.append(bool(pipeline.index.lookup(parsed.ambiguous_mention.mention)))
        sizes.append(_candidates(pipeline, parsed))
        reference.append(_ranking(pipeline.disambiguate(text, mention)))
    return {
        "items": items,
        "gold": gold,
        "index_hit": hits,
        "candidates": sizes,
        "reference": reference,
        "warmup": [slot[i] for i in warmup.tolist()],
        "picks": [slot[i] for i in picks.tolist()],
        "offsets": offsets.tolist(),
    }


def inputs(workload, seed: int, seconds: float, checkpoint: str, out: str) -> None:
    from repro.api import Linker

    pipeline = Linker.load(checkpoint).pipeline
    if workload.mode == "offline":
        payload = offline_inputs(workload, seed, pipeline)
    else:
        payload = online_inputs(workload, seed, seconds, pipeline)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=["train", "inputs"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--checkpoint")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "train":
        train(workload, args.out)
    else:
        inputs(workload, args.seed, args.seconds, args.checkpoint, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
