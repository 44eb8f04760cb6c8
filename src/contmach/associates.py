"""The function-space encoding: dialogues between an oracle and an associate.

An associate is a total, deterministic callable on (finite sub-function,
output question) pairs that either asks for more input values (Query) or
commits to an output value (Answer).  Running the dialogue against an oracle
turns an associate into a machine; the reverse construction turns any machine
with a self-modulating modulus into an associate of its operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .alphabets import (FiniteFunction, NameOracle, _key, _Transcript,
                        encode_value, extend_with_default)
from .machines import (Evaluation, MonotoneMachine, _FirstSettled,
                       _SettlingMachine, _parts)


@dataclass(frozen=True)
class Query:
    questions: tuple


@dataclass(frozen=True)
class Answer:
    value: object


AssociateFn = Callable[[FiniteFunction, object], Union[Query, Answer]]


def dialogue_machine(associate: AssociateFn) -> MonotoneMachine:
    """The machine that runs the dialogue for as many rounds as it has effort.

    At effort n it runs ``dialogue_trace`` for n + 1 rounds and answers
    exactly when the associate commits in them; the modulus is the list of
    questions asked in the first n rounds, which is self-modulating by
    construction (oracles agreeing on those questions replay the same
    dialogue).  A dialogue ends at its answer, so the machine is monotone.
    It carries no ``in_space``/``out_space`` labels.

    Its ``settle(phi, cap)`` runs the dialogue once for cap + 1 rounds:
    the record's answer is the last round's, at effort len(rounds) - 1, and
    its modulus at n lists the questions of the first n rounds, or their
    texts when it is given an encoder.  That list is ``use_first``'s rule,
    per-step lists concatenated up to the first answer, with round k - 1's
    questions as the step at effort k (none at 0), so the record is a
    ``machines._FirstSettled`` over the transcript's rounds: each round's
    questions are listed once and each entry encoded once, whatever the
    order of the asks.  Evaluating it consults the associate once per
    round.  Each of these runs is one ``dialogue_trace``, so the associates
    ``machine_to_associate`` builds resume their walk from round to round
    within it.
    """

    def machine(phi, effort, question):
        return dialogue_trace(associate, phi, question, effort + 1).final_answer

    def modulus(phi, effort, question):
        return _questions(dialogue_trace(associate, phi, question, effort).rounds)

    def settle(phi, cap):
        def settled(question) -> _FirstSettled:
            transcript = dialogue_trace(associate, phi, question, cap + 1)
            found = (Evaluation(transcript.final_answer, len(transcript.rounds) - 1)
                     if transcript.answered else None)
            return _FirstSettled(found, lambda rounds, effort, _: _questions(
                rounds[effort - 1:effort]), transcript.rounds, question)

        return settled

    return _SettlingMachine(machine, modulus, settle=settle)


def _questions(rounds) -> list:
    """The questions asked in ``rounds``, in order."""
    return [asked for r in rounds if r.tag == "query" for asked in r.payload]


def machine_to_associate(machine_like, question_default, answer_default) -> AssociateFn:
    """Build an associate of the given machine's operator.

    On a transcript of size s, pad the transcript into a total oracle that
    answers ``answer_default`` wherever it is unbound, then walk the efforts
    0..s.  At each effort the modulus is inspected first: if it lists
    questions the transcript does not bind, ask for exactly those (the
    padding may have influenced the machine there, so its value must not be
    trusted and is not even computed).  Only when the modulus is fully bound
    is the machine consulted, and its answer — now determined by genuine
    oracle data — is final.  If every effort up to s is covered but silent,
    ask ``question_default``: this grows the transcript, which is what buys
    the next effort level.

    The associate of ``use_first(m)`` walks ``m``: the walk stops at the
    first uncovered modulus or answer, which committing to the first answer
    does not move, so every consultation is the same.

    Called on its own, the associate walks from effort 0, so a consultation
    that reads effort E takes ~E raw calls.  It also carries a private
    ``_walk(state, question, start)`` that starts at effort ``start`` and
    returns the step with the effort where it stopped (s + 1 after
    ``question_default``); ``dialogue_trace`` starts each consultation where
    the previous one stopped.  The one assumption is that the modulus is
    self-modulating: each round only adds first-match pairs, so every effort
    the previous consultation found covered and silent replays unchanged.
    A dialogue of r rounds whose last consultation stops at effort E then
    walks r + E efforts in all, not up to r * E.  On that resumed path the
    walk's state is not a ``FiniteFunction`` but the dialogue's one
    transcript (``alphabets._Transcript``), grown in place between
    consultations; the walk reads only its ``_index`` and ``size``, and each
    consultation still pads it into a fresh oracle.

    The padded oracle and the check for unbound questions both read the
    transcript's first-match index, so each costs one key per question
    (``alphabets._key``) rather than a scan of the transcript.  At each
    effort the machine is asked right after its modulus, on the same padded
    oracle and question, so a machine that keeps its modulus's query, as
    ``inversion_machine`` does, asks the padding once per effort.
    """
    machine_like = getattr(machine_like, "_first_of", None) or machine_like
    machine, modulus = _parts(machine_like, "machine_to_associate")

    def walk(state, question, start):
        padded = extend_with_default(state, answer_default)
        bound = state._index
        for effort in range(start, state.size + 1):
            needed = modulus(padded, effort, question)
            missing = [q for q in needed if _key(q) not in bound]
            if missing:
                return Query(tuple(missing)), effort
            value = machine(padded, effort, question)
            if value is not None:
                return Answer(value), effort
        return Query((question_default,)), state.size + 1

    def associate(state: FiniteFunction, question):
        return walk(state, question, 0)[0]

    associate._walk = walk
    return associate


# ---------------------------------------------------------------------------
# Observability


@dataclass(frozen=True)
class DialogueRound:
    size: int
    tag: str
    payload: object


@dataclass(frozen=True)
class DialogueTranscript:
    """The rounds of one dialogue; it answered when its last round is an answer."""

    rounds: tuple

    @property
    def answered(self) -> bool:
        return bool(self.rounds) and self.rounds[-1].tag == "answer"

    @property
    def final_answer(self):
        if self.answered:
            return self.rounds[-1].payload
        return None

    def to_json(self) -> dict:
        return {
            "rounds": [{"size": r.size, "tag": r.tag,
                        "payload": encode_value(r.payload)} for r in self.rounds],
            "answered": self.answered,
        }


def dialogue_trace(associate: AssociateFn, phi: NameOracle, question,
                   max_rounds: int) -> DialogueTranscript:
    """Record each consultation of the associate until it answers or the cap.

    A round's questions are put to ``phi`` only when another round follows,
    so the queries of the last round before the cap stay unanswered.

    Each round's transcript extends the previous one by the answers to its
    questions.  So when the associate carries a resumable ``_walk``, as
    those of ``machine_to_associate`` do, each consultation starts at the
    effort where the previous one stopped, which for a self-modulating
    modulus gives the rounds of walking from effort 0.  The walk's state is
    then one transcript that grows in place for the whole dialogue, so a
    round costs its own questions, not a copy of the transcript.  Any other
    associate is consulted per round, on an immutable ``FiniteFunction``
    per round, since it may keep the states it is given.  The transcript
    and the resume point live in this call only, so nested and interleaved
    dialogues do not share them.
    """
    walk = getattr(associate, "_walk", None)
    state, start = FiniteFunction() if walk is None else _Transcript(), 0
    rounds = []
    for _ in range(max_rounds):
        if walk is None:
            if rounds:
                state = FiniteFunction(state.entries + tuple(
                    (q, phi(q)) for q in rounds[-1].payload))
            step = associate(state, question)
        else:
            if rounds:
                state.bind(rounds[-1].payload, phi)
            step, start = walk(state, question, start)
        if isinstance(step, Answer):
            rounds.append(DialogueRound(state.size, "answer", step.value))
            break
        rounds.append(DialogueRound(state.size, "query", list(step.questions)))
    return DialogueTranscript(tuple(rounds))
