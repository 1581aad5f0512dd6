//! Offline stand-in for the `crossbeam::channel` subset this workspace uses:
//! `unbounded()`, cloneable `Sender`/`Receiver`, blocking `recv`, and
//! disconnect semantics (recv fails once all senders are gone and the
//! queue is drained; send fails once all receivers are gone).

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver has been
    /// dropped; hands the unsent message back.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like upstream crossbeam: Debug without requiring `T: Debug`, so
    // `.expect(..)` works on send results carrying non-Debug messages.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// The sending half of an unbounded MPMC channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded MPMC channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            let mut q = self.shared.queue.lock().unwrap();
            q.push_back(msg);
            drop(q);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect instead of sleeping forever.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                if let Some(msg) = q.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.ready.wait(q).unwrap();
            }
        }

        /// Messages sent and not yet received.
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().len()
        }

        /// `true` when no message is waiting.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap();
            if let Some(msg) = q.pop_front() {
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_within_single_thread() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (tx, rx) = unbounded::<i32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_errors_after_all_receivers_drop() {
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert_eq!(tx.send(3), Err(SendError(3)));
        }

        #[test]
        fn cloned_receivers_split_work() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let handles: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|r| std::thread::spawn(move || r.recv().unwrap()))
                .collect();
            tx.send(10).unwrap();
            tx.send(20).unwrap();
            let mut got: Vec<i32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![10, 20]);
        }

        #[test]
        fn blocking_recv_wakes_on_send() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        }
    }
}
