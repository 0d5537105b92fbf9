"""Tests for the red-blue pebble game executor."""

import pytest

from repro.pebbling.cdag import CDAG
from repro.pebbling.game import (
    IllegalMoveError,
    Move,
    PebbleGame,
    PebbleMove,
)


@pytest.fixture
def chain():
    """x -> y -> z (inputs: x, outputs: z)."""
    g = CDAG()
    g.add_edge("x", "y")
    g.add_edge("y", "z")
    return g


class TestMoves:
    def test_load_requires_blue(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        with pytest.raises(IllegalMoveError):
            game.load("y")

    def test_load_input(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        assert "x" in game.red
        assert game.result.loads == 1

    def test_load_idempotent(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        game.load("x")
        assert game.result.loads == 1

    def test_compute_requires_red_parents(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        with pytest.raises(IllegalMoveError):
            game.compute("y")

    def test_compute_of_input_rejected(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        with pytest.raises(IllegalMoveError):
            game.compute("x")

    def test_compute_places_red(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        game.compute("y")
        assert "y" in game.red
        assert game.result.computes == 1

    def test_store_requires_red(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        with pytest.raises(IllegalMoveError):
            game.store("z")

    def test_store_of_blue_vertex_is_free(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        game.store("x")
        assert game.result.stores == 0

    def test_store_idempotent(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        game.compute("y")
        game.store("y")
        game.store("y")
        assert game.result.stores == 1

    def test_stored_vertex_can_be_reloaded(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        game.compute("y")
        game.store("y")
        game.free_red("y")
        game.load("y")
        assert (game.result.loads, game.result.stores) == (2, 1)

    def test_peak_survives_frees(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        game.load("x")
        assert game.result.peak_resident == 1
        game.compute("y")
        game.free_red("x")
        game.free_red("y")
        assert game.result.peak_resident == 2

    def test_capacity_enforced(self, chain):
        game = PebbleGame(chain, red_pebbles=1)
        game.load("x")
        with pytest.raises(IllegalMoveError):
            game.compute("y")

    def test_free_red_allows_reuse(self, chain):
        game = PebbleGame(chain, red_pebbles=1)
        game.load("x")
        game.free_red("x")
        game.load("x")
        assert game.result.loads == 2

    def test_unknown_vertex_rejected(self, chain):
        game = PebbleGame(chain, red_pebbles=2)
        with pytest.raises(KeyError):
            game.load("nope")

    def test_initial_blue_on_unknown_vertex_rejected(self, chain):
        with pytest.raises(KeyError):
            PebbleGame(chain, red_pebbles=2, initial_blue=["nope"])

    def test_requires_positive_capacity(self, chain):
        with pytest.raises(ValueError):
            PebbleGame(chain, red_pebbles=0)


class TestRunAndCompleteness:
    def test_complete_calculation(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        moves = [
            PebbleMove(Move.LOAD, "x"),
            PebbleMove(Move.COMPUTE, "y"),
            PebbleMove(Move.COMPUTE, "z"),
            PebbleMove(Move.STORE, "z"),
        ]
        result = game.run(moves)
        assert result.complete
        assert result.io == 2  # one load + one store
        assert result.peak_resident == 3

    def test_incomplete_when_output_not_stored(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        result = game.run([
            PebbleMove(Move.LOAD, "x"),
            PebbleMove(Move.COMPUTE, "y"),
            PebbleMove(Move.COMPUTE, "z"),
        ])
        assert not result.complete
        assert "z" in result.missing_outputs

    def test_moves_executed_counter(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        result = game.run([PebbleMove(Move.LOAD, "x")])
        assert result.moves_executed == 1


class TestLongScheduleRun:
    """A long schedule through ``run``: the counters and final pebbles it must
    leave, and the illegal moves it must stop at."""

    @staticmethod
    def _long_schedule(chain):
        # 72 moves: idempotent loads and stores, a free/recompute cycle, and
        # no-op frees on an unknown vertex.
        moves = []
        for _ in range(12):
            moves += [
                PebbleMove(Move.LOAD, "x"),
                PebbleMove(Move.COMPUTE, "y"),
                PebbleMove(Move.COMPUTE, "z"),
                PebbleMove(Move.STORE, "z"),
                PebbleMove(Move.FREE_RED, "y"),
                PebbleMove(Move.FREE_RED, "ghost"),
            ]
        return moves

    def test_counters_and_final_pebbles(self, chain):
        game = PebbleGame(chain, red_pebbles=3)
        result = game.run(self._long_schedule(chain))
        assert (result.loads, result.stores, result.computes) == (1, 1, 24)
        assert result.peak_resident == 3
        assert result.moves_executed == 72
        assert result.complete
        assert game.red == {"x", "z"}
        assert game.blue == {"x", "z"}

    def test_illegal_move_raises_mid_schedule(self, chain):
        moves = self._long_schedule(chain)
        moves.insert(40, PebbleMove(Move.COMPUTE, "z"))
        moves.insert(40, PebbleMove(Move.FREE_RED, "y"))  # kills z's parent
        game = PebbleGame(chain, red_pebbles=3)
        with pytest.raises(IllegalMoveError, match="parents without red pebbles"):
            game.run(moves)
        assert game.result.moves_executed == 41  # every move before it applied

    def test_capacity_violation_detected(self, chain):
        moves = self._long_schedule(chain)
        with pytest.raises(IllegalMoveError, match="cannot place another red pebble"):
            PebbleGame(chain, red_pebbles=2).run(moves)

    def test_unknown_vertex_in_long_schedule(self, chain):
        moves = self._long_schedule(chain)
        moves.append(PebbleMove(Move.LOAD, "nope"))
        with pytest.raises(KeyError):
            PebbleGame(chain, red_pebbles=3).run(moves)
