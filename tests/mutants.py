"""Mutants of ``src/dynel`` that the suite must kill.

Each mutant replaces one exact text of one file, which must occur there
exactly once, and names the tests of which at least one must fail on the
mutated copy.  ``test_mutants.py`` applies them one at a time to a copy of
the package.  Each stands for a fault the layout invites: an index off by
one, a mask left out, padding that reads another mention's row.
"""

from __future__ import annotations

from typing import NamedTuple

TRAINER = "tests/test_trainer.py"
TRANSFORMER = "tests/test_local_transformer.py"
DOCUMENT_PASS = f"{TRANSFORMER}::TestDocumentPass"
EPISODE = f"{TRAINER}::TestEpisodeGraph"
CLI = "tests/test_cli.py"
SELECTOR = "tests/test_selector.py::TestCandidateDistribution"
RECORD = "tests/test_model.py::test_the_record_equals_the_per_mention_oracle"
LOCKSTEP = "tests/test_harness.py::test_lockstep_links_each_document_as_it_links_alone"
SOFTMAX = "tests/test_autodiff.py::test_both_softmaxes_are_bytewise_the_reference_formulas"
PER_LINE_POOL = "tests/test_autodiff.py::test_per_line_pool_is_bytewise_the_pool_of_each_line_alone"


class Mutant(NamedTuple):
    name: str
    file: str                 # under src/dynel
    old: str                  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]    # at least one of them must fail


MUTANTS = (
    # the encoded record
    Mutant("padded slot reads another mention's row", "model.py",
           "np.where(valid, columns, 0)", "np.where(valid, columns, -1)",
           (f"{TRAINER}::TestEncodedDocument::test_slots_valid_and_gold_on_a_ragged_document"
            "[full]",)),
    Mutant("hinge ignores valid", "trainer.py",
           "    charged = encoded.valid[order] & (gold >= 0)[:, None]",
           "    charged = np.ones(probs.shape, dtype=bool) & (gold >= 0)[:, None]",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[full]",)),
    Mutant("hinge charges a missing gold", "trainer.py",
           "    charged = encoded.valid[order] & (gold >= 0)[:, None]",
           "    charged = encoded.valid[order]",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[full]",)),
    Mutant("window gather off by one", "policy.py",
           "reps = ad.gather(actions, [acts[i] for i in lines])",
           "reps = ad.gather(actions, [np.subtract(acts[i], 1) for i in lines])",
           ("tests/test_policy.py::TestSelectAction::"
            "test_reads_no_action_row_outside_its_window[gapped]",)),
    # the transformer's document pass
    Mutant("attention reads padded keys", "nn.py",
           "mask = None if keys is None else np.broadcast_to(keys[:, None, None, :], scores.shape)",
           "mask = None",
           (f"{DOCUMENT_PASS}::test_equals_the_per_mention_oracle",)),
    Mutant("padding in the context head's softmax", "local_transformer.py",
           "ad.row_softmax(_per_line(o_cands, query), valid)",
           "ad.row_softmax(_per_line(o_cands, query))",
           (f"{DOCUMENT_PASS}::test_equals_the_per_mention_oracle",)),
    Mutant("padding in the transformer's final softmax", "local_transformer.py",
           "return ad.row_softmax(logits, valid)", "return ad.row_softmax(logits)",
           (f"{DOCUMENT_PASS}::test_equals_the_per_mention_oracle",)),
    # the transformer's document input
    Mutant("a candidate row takes its own position", "local_transformer.py",
           "position[i, cands] = heads[i]", "position[i, cands] = position[i, cands]",
           (f"{TRANSFORMER}::test_candidate_rows_share_position_component",)),
    Mutant("a padded row takes its own position, not its [CLS] row's", "local_transformer.py",
           "position[i, :seq] = np.arange(seq)", "position[i] = np.arange(keys.shape[1])",
           (f"{TRANSFORMER}::test_build_input_matches_the_row_by_row_oracle",)),
    Mutant("a separator's segment off by one", "local_transformer.py",
           "np.minimum(1 + np.arange(n + 1), n)", "np.minimum(np.arange(n + 1), n)",
           (f"{TRANSFORMER}::test_build_input_matches_the_row_by_row_oracle",)),
    Mutant("a context word reads the next distinct row", "local_transformer.py",
           "token[i, 1:1 + c] = 2 + word_row[", "token[i, 1:1 + c] = 3 + word_row[",
           (f"{TRANSFORMER}::test_word_gradient_equals_two_dense_gathers_bit_for_bit",
            f"{TRANSFORMER}::test_build_input_matches_the_row_by_row_oracle")),
    # the one gather and backward's ownership of the arrays it adds into
    Mutant("a gather's gradient keeps one of repeated rows", "autodiff.py",
           "np.add.at(out, idx, g)", "out[idx] = g",
           ("tests/test_autodiff.py::test_gather_scatter_accumulates_repeats",
            f"{TRANSFORMER}::test_word_gradient_equals_two_dense_gathers_bit_for_bit")),
    Mutant("backward owns the gradient a grad function passed on", "autodiff.py",
           "contrib.base is None and contrib is not g:", "contrib.base is None:",
           ("tests/test_autodiff.py::test_a_gradient_handed_to_two_keys_is_never_added_into"
            "[itself]",)),
    Mutant("backward owns a view of the gradient a grad function passed on", "autodiff.py",
           "contrib.base is None and contrib is not g:", "contrib is not g:",
           ("tests/test_autodiff.py::test_a_gradient_handed_to_two_keys_is_never_added_into"
            "[a view]",)),
    Mutant("a concat gradient sliced on the wrong axis", "autodiff.py",
           "np.take(g, at, axis) for p, end", "np.take(g, at, 0) for p, end",
           ("tests/test_autodiff.py::"
            "test_axis_joins_copy_numpy_and_match_finite_differences[concat--1]",)),
    # the attn path's document pass
    Mutant("a context pool sees its neighbour's first word", "local_attn.py",
           "(column < ends)", "(column <= ends)", (f"{RECORD}[attn]",)),
    Mutant("action weights summarise padded slots", "model.py",
           "weights = ad.row_softmax(scores, valid)", "weights = ad.row_softmax(scores)",
           (f"{RECORD}[attn]",)),
    Mutant("local gathered from padded slots", "model.py",
           "np.flatnonzero(valid)", "np.arange(valid.sum())",
           (f"{RECORD}[attn]", f"{RECORD}[transformer]")),
    # the selector's episode graph
    Mutant("selector history prefix off by one", "selector.py",
           "(len(entity_ids) - lines + 1)", "(len(entity_ids) - lines + 2)",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[full]",)),
    Mutant("neighbour seen from its last linked entity", "selector.py",
           "first.setdefault(neighbor, i)", "first[neighbor] = i",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[full]",)),
    Mutant("top-k ignores visibility", "autodiff.py",
           "np.argsort(np.where(visible, -scores, np.inf), axis=-1, kind=\"stable\")",
           "np.argsort(-scores, axis=-1, kind=\"stable\")",
           (f"{EPISODE}::test_log_probs_equal_the_per_step_policy[None-2]",)),
    Mutant("padding kept in the z-norm", "selector.py",
           "        centered = ad.mul(centered, mask)", "        centered = centered",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[full]",)),
    Mutant("padding in the candidate softmax", "selector.py",
           "return ad.row_softmax(logits, valid)", "return ad.row_softmax(logits)",
           (f"{EPISODE}::test_one_call_per_episode_equals_the_steps_composed[sum-raw]",)),
    Mutant("empty rows pooled, not a zero column", "selector.py",
           "elif len(rows):", "elif True:",
           (f"{EPISODE}::test_a_one_mention_update_gives_linked_coherence_no_gradient",)),
    # the policy's episode graph
    Mutant("policy visibility prefix off by one", "policy.py",
           "visible = np.tri(steps, dtype=bool)", "visible = np.tri(steps, k=1, dtype=bool)",
           (f"{EPISODE}::test_log_probs_equal_the_per_step_policy[None-2]",)),
    Mutant("window padded with an action outside it", "policy.py",
           "w + (w[0],) * (width - len(w))", "w + (0,) * (width - len(w))",
           (f"{EPISODE}::test_log_probs_equal_the_per_step_policy[4-2]",)),
    Mutant("padding inside the log-softmax", "policy.py",
           "scores(queries, evidence), valid)", "scores(queries, evidence), valid | True)",
           (f"{EPISODE}::test_log_probs_equal_the_per_step_policy[4-2]",)),
    Mutant("history shifted by one step", "policy.py",
           "ad.gather(pairs, list(order[:-1]))", "ad.gather(pairs, list(order[1:]))",
           (f"{EPISODE}::test_log_probs_equal_the_per_step_policy[None-2]",)),
    Mutant("masked log-softmax entries pass gradient", "autodiff.py",
           "        g = np.where(mask, g, 0.0)\n", "",
           ("tests/test_autodiff.py::test_masked_log_softmax_leaves_masked_entries_at_zero",)),
    # the softmax kernel
    Mutant("masked entries enter the line sum", "autodiff.py",
           "np.maximum(e.sum(axis=-1, keepdims=True), 1.0)",
           "np.maximum((e + np.logical_not(mask)).sum(axis=-1, keepdims=True), 1.0)",
           (SOFTMAX,)),
    Mutant("a line with nothing unmasked shifted by -inf", "autodiff.py",
           "initial=_FLOOR)", "initial=-np.inf)", (SOFTMAX,)),
    # the one stepping loop, the walk
    Mutant("sampling pass reads one history row too few", "trainer.py",
           "Tensor(history[rows, :step + 1])", "Tensor(history[rows, :max(step, 1)])",
           (f"{EPISODE}::test_train_rollout_samples_the_order_of_the_per_step_graph[4]",)),
    Mutant("a non-finite window distribution let through", "policy.py",
           "if not finite.all():", "if False:",
           (f"{TRAINER}::TestTrainLoop::"
            "test_a_non_finite_window_distribution_is_named_at_the_document",
            f"{CLI}::test_link_and_eval_refuse_a_non_finite_window_distribution[eval]")),
    Mutant("a refusal names the policy call's line, not the walk's", "trainer.py",
           "raise NonFiniteWindow(free[err.line])", "raise NonFiniteWindow(err.line)",
           (f"{TRAINER}::TestTrainLoop::"
            "test_linking_names_the_document_of_a_non_finite_window",)),
    Mutant("advance takes any unresolved action", "policy.py",
           "at = acts.index(action)", "at = window.unresolved.index(action)",
           (f"{TRAINER}::TestRolloutBasics::test_a_forced_train_order_must_keep_the_window",)),
    Mutant("a finished line kept in the walk", "trainer.py",
           "active = [i for i, n in enumerate(self.sizes) if n >= end]",
           "active = [i for i, n in enumerate(self.sizes) if n > 0]",
           (f"{LOCKSTEP}[2-attn]",)),
    # greedy linking in lockstep
    Mutant("a gold row written in linking", "trainer.py",
           "walk.history[active, step + 1, dim:] = store.entities(entities)",
           "walk.history[active, step + 1, dim:] = store.entities("
           "[batch.mentions[pos].gold for pos in positions])",
           (f"{TRAINER}::TestTeacherForcing::"
            "test_linking_steps_on_the_predicted_pair_after_a_wrong_link",)),
    Mutant("a step's rows written in another line order", "trainer.py",
           "walk.history[active, step + 1, dim:] = store.entities(entities)",
           "walk.history[active, step + 1, dim:] = store.entities(entities[::-1])",
           (f"{TRAINER}::TestTeacherForcing::"
            "test_a_ragged_lockstep_batch_picks_own_candidates_and_links_as_alone",)),
    Mutant("a fixed linking order that keeps config.window", "trainer.py",
           "n if config.window is None or order is not None else config.window",
           "n if config.window is None else config.window",
           (f"{TRAINER}::TestRolloutBasics::"
            "test_a_forced_eval_order_outside_the_window_is_linked",)),
    Mutant("a window group pools another line's history", "policy.py",
           "else histories.data[lines]", "else histories.data[:len(lines)]",
           ("tests/test_policy.py::TestSelectAction::test_a_batch_scores_each_line_as_alone[0]",)),
    Mutant("padded candidate slots scored as candidates", "selector.py",
           "widths = encoded.valid[steps].sum(axis=1)",
           "widths = np.full(steps.size, encoded.valid.shape[1])",
           (f"{SELECTOR}::test_lockstep_lines_score_as_alone_and_as_the_oracle[ffn-True]",)),
    Mutant("a row-count group pools its first line's rows", "autodiff.py",
           "np.array([rows[i] for i in lines])", "np.array([rows[lines[0]] for i in lines])",
           (PER_LINE_POOL,)),
    Mutant("a row-count group pools the first lines' queries", "autodiff.py",
           "self._pool_stack(queries[lines],", "self._pool_stack(queries[:len(lines)],",
           (PER_LINE_POOL,)),
    # the training loop
    Mutant("Adam never marks a row", "trainer.py",
           "touched |= g.reshape(touched.size, -1).any(axis=1)", "touched |= False",
           (f"{TRAINER}::TestAdam::test_row_lazy_step_is_bytewise_the_dense_update",)),
    Mutant("Adam skips touched rows without a gradient", "trainer.py",
           "rows = np.flatnonzero(touched)",
           "rows = np.flatnonzero(g.reshape(touched.size, -1).any(axis=1))",
           (f"{TRAINER}::TestAdam::test_row_lazy_step_is_bytewise_the_dense_update",)),
    Mutant("no value check after the step", "trainer.py",
           "_refuse_non_finite(\"value\", {p: p.data[rows] for p, rows in changed.items()},",
           "_refuse_non_finite(\"value\", {},",
           (f"{TRAINER}::TestTrainLoop::test_divergence_is_named_at_the_parameter[value]",)),
    Mutant("share counts every step", "trainer.py",
           "sum(probs.size > 1 for probs in window_probs)",
           "sum(probs.size > 0 for probs in window_probs)",
           (f"{TRAINER}::TestTrainLoop::test_policy_entropy_and_multi_action_share_per_epoch",)),
    # the rewards
    Mutant("the virtual step 0 counts as wrong", "rewards.py",
           "    prev = True\n", "    prev = False\n",
           ("tests/test_rewards.py::TestR2::test_nonzero_ft_is_honoured",)),
    # the synthetic generator
    Mutant("the noise word drawn before the candidate order", "synthetic.py",
           "        order = rng.permutation(len(cands))\n        after = noise_word()\n",
           "        after = noise_word()\n        order = rng.permutation(len(cands))\n",
           ("tests/test_synthetic.py::test_every_spec_of_the_grid_gives_the_pinned_corpus",)),
    # the baselines
    Mutant("exhaustive-best refuses only when it reaches the document", "harness.py",
           "    if strategy == \"exhaustive-best\":\n        _refuse_long_documents(docs)\n", "",
           ("tests/test_harness.py::TestStrategies::"
            "test_exhaustive_best_refuses_a_long_document_before_linking",)),
    # the checkpoint
    Mutant("a non-finite checkpoint array restored", "model.py",
           "        if not np.isfinite(np.asarray(array, dtype=float)).all():\n"
           "            raise ValueError(",
           "        if False:\n            raise ValueError(",
           (f"{TRAINER}::test_load_checkpoint_refuses_a_non_finite_array[nan]",
            f"{CLI}::test_link_and_eval_refuse_a_non_finite_checkpoint[link]")),
    # the checkpoint's stored config
    Mutant("link and eval build the default config", "cli.py",
           "return TrainConfig.from_dict(meta[\"config\"])", "return TrainConfig()",
           (f"{CLI}::test_link_and_eval_build_the_model_train_stored",)),
    Mutant("a checkpoint without a config is not refused", "cli.py",
           "    if not isinstance(meta, dict) or \"config\" not in meta:\n"
           "        raise ValueError(", "    if False:\n        raise ValueError(",
           (f"{CLI}::test_link_and_eval_refuse_a_checkpoint_without_a_usable_config"
            "[no-config-link]",)),
    Mutant("eval ignores --window", "cli.py",
           "    if args.window is not None:\n", "    if False:\n",
           (f"{CLI}::test_eval_offset_equals_dynamic_w1",)),
)
