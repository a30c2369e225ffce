"""Generic-PDE extension: a hybrid QPINN for the nonlinear Schrödinger
equation (the original PINN paper's benchmark problem).

Trains a small classical PINN and a hybrid QPINN on

    i h_t + 0.5 h_xx + |h|^2 h = 0,  h(x, 0) = 2 sech(x),

on x ∈ [−5, 5], t ∈ [0, π/2] with periodic boundaries, and compares their
relative L2 error in |h| against a split-step Fourier reference, together
with the trainable-parameter counts (the paper's parameter-efficiency
argument on a different PDE).

Scale up with ``SCHRO_EPOCHS`` (default 120).
"""

import os

import numpy as np

from repro.pde import GenericPINN, PDETrainer, PDETrainerConfig, SchrodingerProblem


def main() -> None:
    epochs = int(os.environ.get("SCHRO_EPOCHS", "120"))
    problem = SchrodingerProblem()
    print("reference: split-step Fourier, 256 modes")
    reference = problem.reference()

    runs = {
        "classical PINN": GenericPINN(
            2, 2, hidden=24, n_hidden=3, rng=np.random.default_rng(0)
        ),
        "hybrid QPINN": GenericPINN(
            2, 2, hidden=24, n_hidden=2, quantum="basic_entangling",
            n_qubits=5, n_layers=2, scaling="acos",
            rng=np.random.default_rng(0),
        ),
    }
    for label, model in runs.items():
        config = PDETrainerConfig(epochs=epochs, n_collocation=256, eval_every=max(1, epochs // 4))
        trainer = PDETrainer(model, problem, config)
        trainer.task.reference = reference  # reuse the solve above
        result = trainer.train()
        print(f"\n{label}: {model.num_parameters()} parameters")
        print(f"  loss {result.loss[0]:.3e} -> {result.loss[-1]:.3e}")
        print(f"  relative L2 (|h|): {result.final_l2:.4f}")


if __name__ == "__main__":
    main()
